"""Palindromic index: one node per distinct palindromic factor.

The index is built incrementally, one appended symbol at a time; each append
either creates exactly one new node (a palindrome seen for the first time) or
none.  Appends can be undone, which is what makes prefix-pruned enumeration
of rich words cheap: a prefix is extended, tested, and rolled back.  At a
leaf, creates(c) answers whether appending c would make a new node without
changing the tree at all.

A run of appends costs amortized O(1) per symbol.  Pops break that
amortization: an append or a creates test walks the suffix-link chain from
the longest palindromic suffix, O(|w|) steps at worst (after 0^n, a 1
walks n + 1 links each time it is appended or tested).

A built PalIndex is an immutable snapshot (plain tuples, dicts, frozensets)
and can be shared freely; only the mutable Eertree builder is stateful.
"""

from __future__ import annotations

import functools
from collections import Counter

from .words import Word, reverse


class Eertree:
    """Mutable palindromic tree over integer symbols: append, pop, creates."""

    __slots__ = ("_word", "_len", "_link", "_edge", "_end", "_last", "_history")

    def __init__(self) -> None:
        self._word: list[int] = []
        # node 0: length -1 root; node 1: empty-word root
        self._len: list[int] = [-1, 0]
        self._link: list[int] = [0, 0]
        self._edge: list[dict[int, int]] = [{}, {}]
        self._end: list[int] = [-1, -1]
        self._last = 1
        self._history: list[tuple[int, bool, int, int]] = []

    def __len__(self) -> int:
        return len(self._word)

    @property
    def node_count(self) -> int:
        return len(self._len)

    @property
    def distinct_nonempty(self) -> int:
        return len(self._len) - 2

    def _extend_from(self, x: int, i: int, c: int) -> int:
        # walk suffix links until the palindrome at x can be wrapped as c...c
        word = self._word
        while True:
            j = i - self._len[x] - 1
            if j >= 0 and word[j] == c:
                return x
            x = self._link[x]

    def append(self, c: int) -> bool:
        """Append one symbol; True iff a new palindrome node was created."""
        word = self._word
        word.append(c)
        i = len(word) - 1
        prev_last = self._last
        x = self._extend_from(self._last, i, c)
        cur = self._edge[x].get(c)
        if cur is not None:
            self._last = cur
            self._history.append((prev_last, False, x, c))
            return False
        if self._len[x] + 2 == 1:
            link = 1
        else:
            y = self._extend_from(self._link[x], i, c)
            link = self._edge[y][c]
        new_id = len(self._len)
        self._len.append(self._len[x] + 2)
        self._link.append(link)
        self._edge.append({})
        self._end.append(i)
        self._edge[x][c] = new_id
        self._last = new_id
        self._history.append((prev_last, True, x, c))
        return True

    def creates(self, c: int) -> bool:
        """Whether append(c) would create a node; the tree is left unchanged.

        Only the first half of an append runs: the suffix-link walk to the
        longest palindromic suffix x that c...c wraps, then one edge lookup.
        """
        word = self._word
        # c is pushed for the walk's test at the length -1 root, which
        # compares the new symbol with itself
        word.append(c)
        x = self._extend_from(self._last, len(word) - 1, c)
        word.pop()
        return c not in self._edge[x]

    def pop(self) -> None:
        """Undo the most recent append."""
        prev_last, created, parent, c = self._history.pop()
        if created:
            del self._edge[parent][c]
            self._len.pop()
            self._link.pop()
            self._edge.pop()
            self._end.pop()
        self._last = prev_last
        self._word.pop()

    def node_word(self, node: int, alphabet_size: int | None = None) -> Word:
        end = self._end[node]
        length = self._len[node]
        return Word.from_symbols(
            self._word[end - length + 1 : end + 1], alphabet_size
        )

    def _node_word(self, node: int, alphabet_size: int) -> Word:
        """node_word without validation, for a tree fed from one Word.

        Only for a tree whose symbols all came from a Word with this
        alphabet size, so every symbol is known to fit.
        """
        end = self._end[node]
        symbols = self._word[end - self._len[node] + 1 : end + 1]
        return Word._trusted("".join(map(chr, symbols)), alphabet_size)

    def last_node(self) -> int:
        return self._last

    def node_length(self, node: int) -> int:
        return self._len[node]

    def suffix_link(self, node: int) -> int:
        return self._link[node]


def _tree_of(chars: str) -> Eertree:
    """An Eertree of the word packed in chars (symbol i stored as chr(i))."""
    tree = Eertree()
    for c in map(ord, chars):
        tree.append(c)
    return tree


def _suffix_palindromes(tree: Eertree) -> tuple[int, int]:
    """Nodes of the longest and the longest proper palindromic suffix.

    Node 1 is the empty palindrome; the empty word has it for both.
    """
    last = tree.last_node()
    if len(tree) == 0 or tree.node_length(last) < len(tree):
        return last, last
    # the whole word is a palindrome: its suffix link is the longest proper one
    return last, tree.suffix_link(last)


class PalIndex:
    """Immutable palindromic-factor index of one word."""

    __slots__ = (
        "word",
        "counts_by_prefix",
        "created_flags",
        "_by_length",
        "lps_word",
        "lpps_word",
    )

    def __init__(self, word: Word):
        tree = Eertree()
        q = word.alphabet_size
        flags = []
        counts = [1]  # the empty palindrome counts for every prefix
        for c in word:
            flags.append(tree.append(c))
            counts.append(tree.distinct_nonempty + 1)
        by_length: dict[int, set[Word]] = {0: {Word("", q)}}
        for node in range(2, tree.node_count):
            by_length.setdefault(tree.node_length(node), set()).add(
                tree._node_word(node, q)
            )
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "counts_by_prefix", tuple(counts))
        object.__setattr__(self, "created_flags", tuple(flags))
        object.__setattr__(
            self,
            "_by_length",
            {n: frozenset(s) for n, s in by_length.items()},
        )
        lps_node, lpps_node = _suffix_palindromes(tree)
        object.__setattr__(self, "lps_word", tree._node_word(lps_node, q))
        object.__setattr__(self, "lpps_word", tree._node_word(lpps_node, q))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("PalIndex is immutable")

    @property
    def distinct_count(self) -> int:
        """Distinct palindromic factors including the empty word."""
        return self.counts_by_prefix[-1]

    def palindromes(self) -> frozenset[Word]:
        out: set[Word] = set()
        for s in self._by_length.values():
            out |= s
        return frozenset(out)

    def palindromes_of_length(self, n: int) -> frozenset[Word]:
        return self._by_length.get(n, frozenset())

    def count_of_length(self, n: int) -> int:
        return len(self._by_length.get(n, ()))

    def lengths(self) -> list[int]:
        return sorted(self._by_length)


def is_rich(w: Word) -> bool:
    """A word is rich iff every prefix extension creates a new palindrome."""
    tree = Eertree()
    for c in w:
        if not tree.append(c):
            return False
    return True


def defect(w: Word) -> int:
    """|w| + 1 minus the number of distinct palindromic factors (with the empty one)."""
    return len(w) - _tree_of(w.chars).distinct_nonempty


def lps(w: Word) -> Word:
    """Longest palindromic suffix; rejects the empty word."""
    if len(w) == 0:
        raise ValueError("lps of the empty word is undefined")
    tree = _tree_of(w.chars)
    return tree._node_word(_suffix_palindromes(tree)[0], w.alphabet_size)


def lpp(w: Word) -> Word:
    """Longest palindromic prefix, computed as lps of the reversed word."""
    if len(w) == 0:
        raise ValueError("lpp of the empty word is undefined")
    return lps(reverse(w))


@functools.lru_cache(maxsize=65536)
def _lpps_of(chars: str, q: int) -> Word:
    tree = _tree_of(chars)
    return tree._node_word(_suffix_palindromes(tree)[1], q)


def lpps(w: Word) -> Word:
    """Longest proper palindromic suffix; empty for |w| <= 1."""
    if len(w) <= 1:
        return Word("", w.alphabet_size)
    # A cross-check asks for the lpps of the same short switch cores over and over.
    return _lpps_of(w.chars, w.alphabet_size)


def lppp(w: Word) -> Word:
    """Longest proper palindromic prefix; empty for |w| <= 1."""
    return lpps(reverse(w))


def palindrome_length_counts(w: Word) -> Counter:
    """Counter mapping factor length -> number of distinct palindromic factors."""
    idx = PalIndex(w)
    return Counter({n: idx.count_of_length(n) for n in idx.lengths()})
