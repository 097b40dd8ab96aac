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
walks n + 1 links each time it is appended or tested).  Each walk is one
bare loop, since the stored word starts with a sentinel that equals no
symbol.  An append keeps two list slots, its symbol and, for its undo,
the last node before it; a new node five more and a dict of its
children.  On the 16,000-letter Fibonacci prefix an append-only run
holds 6.0 MB (tracemalloc; tools/eertree_cost.py).

Every read-only query on a word (PalIndex, is_rich, defect, the lps
family, and in richlab.structures the closure and the switch table) reads
one finished tree of it, _run(chars), kept for the last few words asked
about; nothing may append to or pop that shared tree.  A palindrome is a
prefix of the word exactly when its node's first occurrence ends at its
own length, so lpp and lppp need no tree of the reversed word.

A built PalIndex is an immutable snapshot (plain tuples, dicts, frozensets)
and can be shared freely; only the mutable Eertree builder is stateful.
"""

from __future__ import annotations

import functools
from collections import Counter
from itertools import accumulate

from .words import Word


class Eertree:
    """Mutable palindromic tree over integer symbols: append, pop, creates.

    _word[0] is a sentinel that equals no symbol, and symbol i of the word
    sits at _word[i + 1], so a suffix-link walk needs no bounds test: it
    stops at the length -1 root at the latest, whose test compares the new
    symbol with itself.  Node 0 is that root, node 1 the empty palindrome;
    _end holds the _word index where each node's first occurrence ends.

    The undo log is two lists of ints: _prev, the last node before each
    append, and _parent, the node each node wraps.  A pop at _word index i
    removes the newest node iff that node ends at i, because a node made by
    the append at i is the newest one and ends there.
    """

    __slots__ = ("_word", "_len", "_link", "_edge", "_end", "_parent", "_last", "_prev")

    def __init__(self) -> None:
        self._word: list = [None]
        self._len: list[int] = [-1, 0]
        self._link: list[int] = [0, 0]
        self._edge: list[dict[int, int]] = [{}, {}]
        self._end: list[int] = [-1, -1]
        self._parent: list[int] = [0, 0]
        self._last = 1
        self._prev: list[int] = []

    def __len__(self) -> int:
        return len(self._word) - 1

    @property
    def node_count(self) -> int:
        return len(self._len)

    @property
    def distinct_nonempty(self) -> int:
        return len(self._len) - 2

    def append(self, c: int) -> bool:
        """Append one symbol; True iff a new palindrome node was created."""
        word, lens, links = self._word, self._len, self._link
        word.append(c)
        # k indexes the last symbol before c: a palindromic suffix x there is
        # preceded by word[k - len(x)], the sentinel when x is the whole word
        k = len(word) - 2
        x = last = self._last
        # the longest palindromic suffix x that c...c wraps
        while word[k - lens[x]] != c:
            x = links[x]
        self._prev.append(last)
        children = self._edge[x]
        node = children.get(c)
        if node is not None:
            self._last = node
            return False
        if x:
            # the new node's suffix link: the next suffix below x that c...c wraps
            y = links[x]
            while word[k - lens[y]] != c:
                y = links[y]
            link = self._edge[y][c]
        else:
            link = 1  # a single letter links to the empty palindrome
        node = len(lens)
        lens.append(lens[x] + 2)
        links.append(link)
        self._edge.append({})
        self._end.append(k + 1)
        self._parent.append(x)
        children[c] = node
        self._last = node
        return True

    def creates(self, c: int) -> bool:
        """Whether append(c) would create a node; the tree is left unchanged.

        Only the first half of an append runs: the suffix-link walk to the
        longest palindromic suffix x that c...c wraps, then one edge lookup.
        c is not pushed, so the walk stops at the length -1 root itself.
        """
        word, lens, links = self._word, self._len, self._link
        k = len(word) - 1  # as in append
        x = self._last
        while x and word[k - lens[x]] != c:
            x = links[x]
        return c not in self._edge[x]

    def pop(self) -> None:
        """Undo the most recent append."""
        word = self._word
        last = self._prev.pop()
        if self._end[-1] == len(word) - 1:
            del self._edge[self._parent.pop()][word[-1]]
            self._len.pop()
            self._link.pop()
            self._edge.pop()
            self._end.pop()
        self._last = last
        word.pop()

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


# The queries on one word come one after another, so a few entries suffice.
@functools.lru_cache(maxsize=16)
def _run(chars: str) -> Eertree:
    """The finished Eertree of chars, shared: never append to it or pop it."""
    return _tree_of(chars)


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
        tree = _run(word.chars)
        q = word.alphabet_size
        # the append at _word index i created a node iff a node ends there first
        flags = [False] * len(word)
        for end in tree._end[2:]:
            flags[end - 1] = True
        counts = tuple(accumulate(flags, initial=1))  # the empty palindrome counts too
        by_length: dict[int, set[Word]] = {0: {Word("", q)}}
        for node in range(2, tree.node_count):
            by_length.setdefault(tree.node_length(node), set()).add(
                tree._node_word(node, q)
            )
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "counts_by_prefix", counts)
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
    return _run(w.chars).distinct_nonempty == len(w)


def defect(w: Word) -> int:
    """|w| + 1 minus the number of distinct palindromic factors (with the empty one)."""
    return len(w) - _run(w.chars).distinct_nonempty


def lps(w: Word) -> Word:
    """Longest palindromic suffix; rejects the empty word."""
    if len(w) == 0:
        raise ValueError("lps of the empty word is undefined")
    tree = _run(w.chars)
    return tree._node_word(tree.last_node(), w.alphabet_size)


def _prefix_palindrome(w: Word, below: int) -> Word:
    """The longest palindromic prefix of w shorter than below.

    A node is a prefix iff its first occurrence ends at its own length.
    """
    tree = _run(w.chars)
    n = max(n for n, end in zip(tree._len[2:], tree._end[2:]) if n == end < below)
    return Word._trusted(w.chars[:n], w.alphabet_size)


def lpp(w: Word) -> Word:
    """Longest palindromic prefix; rejects the empty word."""
    if len(w) == 0:
        raise ValueError("lpp of the empty word is undefined")
    return _prefix_palindrome(w, len(w) + 1)


@functools.lru_cache(maxsize=65536)
def _lpps_of(chars: str, q: int) -> Word:
    tree = _run(chars)
    return tree._node_word(_suffix_palindromes(tree)[1], q)


def lpps(w: Word) -> Word:
    """Longest proper palindromic suffix; empty for |w| <= 1."""
    if len(w) <= 1:
        return Word("", w.alphabet_size)
    # A cross-check asks for the lpps of the same short switch cores over and over.
    return _lpps_of(w.chars, w.alphabet_size)


def lppp(w: Word) -> Word:
    """Longest proper palindromic prefix; empty for |w| <= 1."""
    if len(w) <= 1:
        return Word("", w.alphabet_size)
    return _prefix_palindrome(w, len(w))


def palindrome_length_counts(w: Word) -> Counter:
    """Counter mapping factor length -> number of distinct palindromic factors."""
    idx = PalIndex(w)
    return Counter({n: idx.count_of_length(n) for n in idx.lengths()})
