"""Structures living inside rich words.

Switches (a·u·b with palindromic core u and a != b), complete returns,
grouping of switch cores by longest proper palindromic suffix, the
compression map that squeezes a palindrome v with a long palindromic
prefix u down to a short fragment, palindromic closure, sentinel
augmentation, and Rauzy graphs.

Switches come from precomputed centre radii: at most one occurrence per
centre, so listing every switch of a word is linear in its length.  The
word profiles of richlab.bounds find their switch counts another way, on
an Eertree's suffix-link chain, and need no occurrences.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .paltree import _tree_of, lpps
from .records import SwitchPair, SwitchRecord
from .words import MAX_ALPHABET, Word, is_palindrome, reverse


# The switch queries over one word (one per length, pairs, core partitions)
# share one pass; the result is shared, so callers must not mutate it.  The
# queries come word by word, so a few entries suffice.
@functools.lru_cache(maxsize=16)
def _switch_starts(s: str) -> dict[int, list[int]]:
    """Start positions of the switch occurrences a·u·b of s (u nonempty), by length.

    A palindrome between two different letters cannot be extended at its
    centre, so it is the maximal one there: each of the 2|s|-1 centres
    holds at most one switch occurrence, read off Manacher's radii in
    O(|s|) steps.
    """
    n = len(s)
    starts: dict[int, list[int]] = {}
    d1 = [0] * n
    l, r = 0, -1
    for i in range(n):
        k = 1 if i > r else min(d1[l + r - i], r - i + 1)
        while i - k >= 0 and i + k < n and s[i - k] == s[i + k]:
            k += 1
        d1[i] = k
        if i + k - 1 > r:
            l, r = i - k + 1, i + k - 1
        if k <= i and i + k < n:  # s[i-k+1 .. i+k-1] has a letter each side
            starts.setdefault(2 * k + 1, []).append(i - k)
    d2 = [0] * n
    l, r = 0, -1
    for i in range(n):
        k = 0 if i > r else min(d2[l + r - i + 1], r - i + 1)
        while i - k - 1 >= 0 and i + k < n and s[i - k - 1] == s[i + k]:
            k += 1
        d2[i] = k
        if i + k - 1 > r:
            l, r = i - k, i + k - 1
        if 0 < k < i and i + k < n:  # s[i-k .. i+k-1] has a letter each side
            starts.setdefault(2 * k + 2, []).append(i - k - 1)
    return starts


def complete_returns(w: Word, u: Word) -> frozenset[Word]:
    """Factors of w containing u exactly twice: as prefix and as suffix.

    Consecutive occurrence pairs of u in w are exactly these factors.
    Empty set when u does not occur at least twice; empty u is rejected.
    """
    if len(u) == 0:
        raise ValueError("returns to the empty word are undefined")
    s, pat, q = w.chars, u.chars, w.alphabet_size
    out = set()
    prev = s.find(pat)
    while prev != -1:
        nxt = s.find(pat, prev + 1)
        if nxt == -1:
            break
        out.add(Word(s[prev : nxt + len(pat)], q))
        prev = nxt
    return frozenset(out)


@functools.lru_cache(maxsize=64)
def _switch_records(s: str, q: int, n: int) -> frozenset[SwitchRecord]:
    # q is part of the key: Words compare by chars alone, but the cores
    # must carry the alphabet size of the word they came from
    windows = {s[i : i + n] for i in _switch_starts(s).get(n, ())}
    return frozenset(
        SwitchRecord(ord(x[0]), Word._trusted(x[1:-1], q), ord(x[-1])) for x in windows
    )


def switches(w: Word, n: int) -> frozenset[SwitchRecord]:
    """All length-n factors a·u·b of w with u a palindrome and a != b."""
    # The pair, core and partition queries, and a cross-check of one word,
    # ask for the same (word, n) again and again; the set is shared.
    return _switch_records(w.chars, w.alphabet_size, n)


def switch_pairs(w: Word, n: int) -> frozenset[SwitchPair]:
    """Core/letter pairs (u, a): both end letters of every switch count."""
    out = set()
    for rec in switches(w, n):
        out.add(SwitchPair(rec.core, rec.left))
        out.add(SwitchPair(rec.core, rec.right))
    return frozenset(out)


def switch_cores(w: Word, n: int) -> frozenset[Word]:
    """Distinct palindromic cores of the length-n switches."""
    return frozenset(rec.core for rec in switches(w, n))


def cores_with_lpps(w: Word, n: int, r: Word) -> frozenset[Word]:
    """Length-n switch cores whose longest proper palindromic suffix is r."""
    return frozenset(
        u for u in switch_cores(w, n + 2) if lpps(u).chars == r.chars
    )


def max_switch_count(w: Word, n: int) -> int:
    """Largest switch-set size over lengths up to n, floored at 1."""
    if n < 0:
        raise ValueError("length bound must be >= 0")
    s = w.chars
    return max(
        [1]
        + [
            len({s[i : i + m] for i in starts})
            for m, starts in _switch_starts(s).items()
            if m <= n
        ]
    )


class CompressionDomainError(ValueError):
    """Compression preconditions violated; code names the failed one."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(message)


@dataclass(frozen=True)
class CompressedPalindrome:
    """Fragment from which a palindrome v with palindromic prefix u rebuilds.

    window_start/window_end are the 1-based inclusive positions (k, n) of v
    whose letters the fragment stores; every other letter of v follows by
    reflecting about the centers of u and of v.  prefix_odd records |u|'s
    parity, which equals the fragment's length parity.
    """

    fragment: Word
    half: Word
    window_start: int
    window_end: int
    v_length: int
    prefix_odd: bool


def pal_compress(u: Word, v: Word) -> CompressedPalindrome:
    """Compress palindrome v given a palindromic prefix u with |u| >= |v|/2."""
    if not is_palindrome(u):
        raise CompressionDomainError("not-palindrome", "u is not a palindrome")
    if not is_palindrome(v):
        raise CompressionDomainError("not-palindrome", "v is not a palindrome")
    if not v.chars.startswith(u.chars):
        raise CompressionDomainError("not-prefix", "u is not a prefix of v")
    if not (2 * len(u) >= len(v) and len(u) < len(v)):
        raise CompressionDomainError(
            "length-window", f"|u|={len(u)} outside [{len(v)}/2, {len(v)})"
        )
    n = (len(v) + 1) // 2
    odd = len(u) % 2 == 1
    k = (len(u) + 1) // 2 if odd else len(u) // 2 + 1
    half = v[k - 1 : n]
    rev = half.chars[::-1]
    fragment = rev + half.chars[1:] if odd else rev + half.chars
    return CompressedPalindrome(
        fragment=Word(fragment, v.alphabet_size),
        half=half,
        window_start=k,
        window_end=n,
        v_length=len(v),
        prefix_odd=odd,
    )


def pal_reconstruct(fragment: Word, v_length: int) -> Word:
    """Rebuild the unique palindrome of the given length from a fragment.

    Inverse of pal_compress in the sense that the fragment plus the target
    length determine v; inputs that no compression could have produced are
    rejected rather than mapped to junk.
    """
    if v_length < 2:
        raise ValueError("target length must be at least 2")
    if len(fragment) == 0:
        raise ValueError("fragment must be nonempty")
    if not is_palindrome(fragment):
        raise ValueError("fragment is not a palindrome")
    n = (v_length + 1) // 2
    odd = len(fragment) % 2 == 1
    m = (len(fragment) + 1) // 2  # window width n - k + 1
    k = n - m + 1
    u_len = 2 * k - 1 if odd else 2 * k - 2
    if not (k >= 1 and 2 * u_len >= v_length and 0 < u_len < v_length):
        raise ValueError(
            f"fragment length {len(fragment)} incompatible with target {v_length}"
        )
    half = fragment.chars[m - 1 :] if odd else fragment.chars[m:]
    out = []
    for j in range(1, v_length + 1):
        p = j
        hops = 0
        while not k <= p <= n:
            if p > n:
                p = v_length - p + 1
            else:
                p = u_len - p + 1
            hops += 1
            if hops > 2 * v_length + 4:  # cannot happen for consistent inputs
                raise ValueError("fragment inconsistent with target length")
        out.append(half[p - k])
    v = Word("".join(out), fragment.alphabet_size)
    u = v[:u_len]
    if not is_palindrome(v) or not is_palindrome(u):
        raise ValueError("fragment does not encode a palindrome of this length")
    if pal_compress(u, v).fragment != fragment:
        raise ValueError("fragment does not round-trip at this length")
    return v


def palindromic_closure(w: Word) -> Word:
    """Shortest palindrome with w as a prefix: w followed by reverse(p), w = p·lps(w)."""
    if len(w) == 0:
        return w
    tree = _tree_of(w.chars)
    p_len = len(w) - tree.node_length(tree.last_node())  # the last node is lps(w)
    return Word(w.chars + w.chars[:p_len][::-1], w.alphabet_size)


def sentinel_augment(w: Word) -> Word:
    """w, a fresh sentinel letter, then reverse(w); always a palindrome."""
    q = w.alphabet_size
    if q + 1 > MAX_ALPHABET:
        raise ValueError("no room for a sentinel symbol in the alphabet")
    return Word(w.chars + chr(q) + w.chars[::-1], q + 1)


@dataclass(frozen=True)
class RauzyGraph:
    """Directed graph on length-n factors; edges realized by length-(n+1) factors."""

    order: int
    vertices: frozenset[Word]
    edges: frozenset[tuple[Word, Word]]

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def rauzy_graph(w: Word, n: int) -> RauzyGraph:
    """Graph of length-n factors; each length-(n+1) factor z adds prefix->suffix."""
    if n < 1:
        raise ValueError("graph order must be >= 1")
    if len(w) < n + 1:
        raise ValueError(f"need |w| >= {n + 1} to have any transitions")
    s, q = w.chars, w.alphabet_size
    vertices = {Word(s[i : i + n], q) for i in range(len(s) - n + 1)}
    edges = set()
    for i in range(len(s) - n):
        z = s[i : i + n + 1]
        edges.add((Word(z[:-1], q), Word(z[1:], q)))
    return RauzyGraph(order=n, vertices=frozenset(vertices), edges=frozenset(edges))


def is_strongly_connected(g: RauzyGraph) -> bool:
    """Every vertex reaches every other along directed edges."""
    verts = list(g.vertices)
    if len(verts) <= 1:
        return True
    fwd: dict[Word, list[Word]] = {v: [] for v in verts}
    bwd: dict[Word, list[Word]] = {v: [] for v in verts}
    for a, b in g.edges:
        fwd[a].append(b)
        bwd[b].append(a)

    def reaches_all(adj: dict[Word, list[Word]]) -> bool:
        seen = {verts[0]}
        stack = [verts[0]]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == len(verts)

    return reaches_all(fwd) and reaches_all(bwd)
