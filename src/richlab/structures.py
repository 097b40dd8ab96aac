"""Structures living inside rich words.

Switches (a·u·b with palindromic core u and a != b), complete returns,
grouping of switch cores by longest proper palindromic suffix, the
compression map that squeezes a palindrome v with a long palindromic
prefix u down to a short fragment, palindromic closure, sentinel
augmentation, and Rauzy graphs.

Every switch comes from one step on an append-only Eertree, _new_cores:
appending a letter makes new exactly the switches a·u·b that end there
and are longer than the longest suffix seen before, read off the
suffix-link chain of the prefix's lps with no strings.  The word profiles
of richlab.bounds and the switch queries here share that step; the
queries list each distinct switch once, at its first occurrence
(_first_switches), walking the word's finished tree: the queries and the
closure read the word's shared run (paltree._run), and the profile its
own tree, which the closure profile goes on to extend.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

from .paltree import Eertree, _run
from .records import SwitchPair, SwitchRecord
from .words import MAX_ALPHABET, Word, is_palindrome


def _suffix_automaton(s: str) -> tuple[list[int], list[int], list[dict], list[int]]:
    """State lengths, suffix links and transitions of the suffix automaton of s,
    and for each i the length of the longest suffix of s[:i+1] in F(s[:i]).

    State 0 is the root; every other state v stands for the factors of s
    with lengths length[link[v]]+1 .. length[v] that share one end set.
    """
    length, link, nxt, earlier = [0], [-1], [{}], []
    last = 0
    for c in s:
        cur = len(length)
        length.append(length[last] + 1)
        link.append(0)
        nxt.append({})
        p = last
        while p != -1 and c not in nxt[p]:
            nxt[p][c] = cur
            p = link[p]
        if p != -1:
            r = nxt[p][c]
            if length[p] + 1 == length[r]:
                link[cur] = r
            else:
                clone = len(length)
                length.append(length[p] + 1)
                link.append(link[r])
                nxt.append(nxt[r].copy())
                while p != -1 and nxt[p].get(c) == r:
                    nxt[p][c] = clone
                    p = link[p]
                link[r] = link[cur] = clone
        earlier.append(length[link[cur]])
        last = cur
    return length, link, nxt, earlier


def _new_cores(tree: Eertree, s: str, i: int, m: int, x: int) -> list[int]:
    """The core nodes of the switches that appending s[i] to s[:i] makes new.

    x is the node of lps(s[:i]) in tree, which holds s[:i] or more; m is
    the length of the longest suffix of s[:i+1] that occurs in s[:i].  A
    new switch a·u·s[i] is longer than m, and its core u is a nonempty
    palindromic suffix of s[:i] (on the suffix-link chain of x) preceded
    by a letter a != s[i].
    """
    length, link = tree.node_length, tree.suffix_link
    c = s[i]
    n = length(x)
    if n == i:  # s[:i] is a palindrome: no letter precedes it
        x = link(x)
        n = length(x)
    cores = []
    while n > 0 and n + 2 > m:
        if s[i - n - 1] != c:
            cores.append(x)
        x = link(x)
        n = length(x)
    return cores


def _first_switches(
    tree: Eertree, s: str, earlier: list[int]
) -> Iterator[tuple[int, int]]:
    """(i, x) for each distinct switch of s: its first occurrence ends at i
    and its core is the node x, whose suffix link is the core's lpps.

    tree is a finished run of appends of s, read only: the lps node of
    s[:i] is the last node before the append at i, tree._prev[i].
    earlier is _suffix_automaton's fourth result.
    """
    prev = tree._prev
    for i in range(len(s)):
        for x in _new_cores(tree, s, i, earlier[i], prev[i]):
            yield i, x


# The switch queries over one word (one per length, pairs, cores, lpps
# classes, the largest count) share one pass over the word's shared run;
# the result is shared, so callers must not mutate it.  The queries come
# word by word, so a few entries suffice.
@functools.lru_cache(maxsize=16)
def _switch_table(s: str) -> dict[int, list[tuple[int, int]]]:
    """Per switch length n, each distinct switch of s as (end, |lpps(core)|)."""
    tree = _run(s)
    length, link = tree.node_length, tree.suffix_link
    table: dict[int, list[tuple[int, int]]] = {}
    for i, x in _first_switches(tree, s, _suffix_automaton(s)[3]):
        table.setdefault(length(x) + 2, []).append((i, length(link(x))))
    return table


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
    return frozenset(
        SwitchRecord(ord(s[i - n + 1]), Word._trusted(s[i - n + 2 : i], q), ord(s[i]))
        for i, _ in _switch_table(s).get(n, ())
    )


def switches(w: Word, n: int) -> frozenset[SwitchRecord]:
    """All length-n factors a·u·b of w with u a palindrome and a != b."""
    # The pair, core and partition queries, and a cross-check of one word,
    # ask for the same (word, n) again and again; the set is shared.
    return _switch_records(w.chars, w.alphabet_size, n)


def switch_pairs(w: Word, n: int) -> frozenset[SwitchPair]:
    """Core/letter pairs (u, a): both end letters of every switch count."""
    return frozenset(
        SwitchPair(rec.core, a) for rec in switches(w, n) for a in (rec.left, rec.right)
    )


def switch_cores(w: Word, n: int) -> frozenset[Word]:
    """Distinct palindromic cores of the length-n switches."""
    return frozenset(rec.core for rec in switches(w, n))


def cores_with_lpps(w: Word, n: int, r: Word) -> frozenset[Word]:
    """Length-n switch cores whose longest proper palindromic suffix is r."""
    s, q, k = w.chars, w.alphabet_size, len(r)
    return frozenset(
        Word._trusted(s[i - n : i], q)
        for i, lpps_length in _switch_table(s).get(n + 2, ())
        if lpps_length == k and s[i - k : i] == r.chars
    )


def max_switch_count(w: Word, n: int) -> int:
    """Largest switch-set size over lengths up to n, floored at 1."""
    if n < 0:
        raise ValueError("length bound must be >= 0")
    # each distinct switch is listed once, so a length's count is its list's size
    return max([1] + [len(v) for m, v in _switch_table(w.chars).items() if m <= n])


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


def _closure_chars(s: str, lps_length: int) -> str:
    """The palindromic closure of s: s, then the part before its lps reversed."""
    return s + s[: len(s) - lps_length][::-1]


def palindromic_closure(w: Word) -> Word:
    """Shortest palindrome with w as a prefix: w followed by reverse(p), w = p·lps(w)."""
    tree = _run(w.chars)
    lps_length = tree.node_length(tree.last_node())  # the last node is lps(w)
    return Word(_closure_chars(w.chars, lps_length), w.alphabet_size)


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
