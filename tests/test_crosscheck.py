"""Fast-vs-oracle comparison harness: cell parsing, fuzzing, determinism."""

import itertools
import random

import pytest

from collections import Counter

from richlab import bounds, crosscheck, oracle, paltree, structures
from richlab.crosscheck import (
    CellSpec,
    compare_word,
    exhaustive_check,
    parse_cells,
    run_cell,
    run_cells,
)
from richlab.structures import cores_with_lpps, switch_pairs, switches
from richlab.words import EMPTY, Word

W3 = Word.parse("1100100010011001010")
W37 = Word.parse("2110112333211011454110116110116778776")
WG = Word.parse("5112211311001131133114111146")


def test_parse_cells_goldens():
    assert parse_cells("q2:len50:1000") == (CellSpec(2, 50, 1000),)
    specs = parse_cells("q2:len20:10, q3:len50:5 ,q4:len200:1")
    assert specs == (CellSpec(2, 20, 10), CellSpec(3, 50, 5), CellSpec(4, 200, 1))
    assert specs[0].label == "q2:len20:10"


@pytest.mark.parametrize(
    "text",
    ["", "q2len50:10", "q2:len50", "q2:len50:10:extra", "2:len50:10", "qx:len50:10"],
)
def test_parse_cells_rejects_malformed(text):
    with pytest.raises(ValueError, match="expected the form"):
        parse_cells(text)


def test_parse_cells_rejects_bad_values():
    with pytest.raises(ValueError, match="alphabet size"):
        parse_cells("q0:len5:10")
    with pytest.raises(ValueError, match="word count"):
        parse_cells("q2:len5:0")


def test_known_words_agree_with_oracle():
    for w in (EMPTY, Word.parse("0"), Word.parse("0110"), W3, W37, WG):
        assert compare_word(w) == []


def test_exhaustive_check_small():
    result = exhaustive_check(2, 5)
    assert result.ok
    assert result.words_checked == 63  # 2**0 + ... + 2**5
    assert result.mismatches == ()
    assert result.spec.label == "q2:len5:63"


def test_run_cell_passes_and_is_deterministic():
    spec = parse_cells("q3:len40:20")[0]
    a = run_cell(spec, seed=7)
    b = run_cell(spec, seed=7)
    assert a.ok and b.ok
    assert a.words_checked == b.words_checked == 20
    da, db = a.to_json_dict(), b.to_json_dict()
    da.pop("elapsed_seconds"), db.pop("elapsed_seconds")
    assert da == db


def test_run_cells_preserves_order():
    specs = parse_cells("q2:len10:5,q3:len15:5")
    results = run_cells(specs, seed=1)
    assert [r.spec for r in results] == list(specs)
    assert all(r.ok for r in results)


def test_run_cells_in_a_pool_match_the_sequential_run(monkeypatch):
    specs = parse_cells("q2:len12:8,q3:len30:5,q4:len20:4,q2:len40:3")

    def payload(cpus):
        monkeypatch.setattr("richlab.crosscheck._cpus", lambda: cpus)
        out = [r.to_json_dict() for r in run_cells(specs, seed=11)]
        for d in out:
            d.pop("elapsed_seconds")
        return out

    assert payload(2) == payload(1)


def test_sampled_palindromes_do_not_depend_on_the_hash_seed():
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "from richlab import crosscheck\n"
        "seen = []\n"
        "real = crosscheck.complete_returns\n"
        "def spy(w, u):\n"
        "    seen.append(u.text)\n"
        "    return real(w, u)\n"
        "crosscheck.complete_returns = spy\n"
        "assert crosscheck.run_cell(crosscheck.CellSpec(2, 50, 1), seed=1).ok\n"
        "print(seen)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = set()
    for hash_seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            check=True,
        )
        outs.add(done.stdout)
    assert len(outs) == 1
    assert outs.pop().count("'") == 6  # three palindromes, each quoted


def test_exhaustive_check_rejects_a_negative_length():
    with pytest.raises(ValueError, match=">= 0"):
        exhaustive_check(2, -1)


def test_switch_memos_keep_each_alphabet_size():
    # Words compare by chars alone, so the memos must key on q as well
    chars = W3.chars
    for q in (2, 3, 2):
        w = Word(chars, q)
        for side in (switches, oracle.oracle_switches):
            recs = side(w, 3)
            assert recs and {r.core.alphabet_size for r in recs} == {q}
        for side in (switch_pairs, oracle.oracle_switch_pairs):
            assert {p.core.alphabet_size for p in side(w, 3)} == {q}
        for side in (cores_with_lpps, oracle.oracle_cores_with_lpps):
            assert {u.alphabet_size for u in side(w, 1, EMPTY)} == {q}


def test_harness_detects_an_injected_fault(monkeypatch):
    # sanity: a wrong oracle answer must surface as a mismatch
    monkeypatch.setattr("richlab.oracle.oracle_lps", lambda w: EMPTY)
    problems = compare_word(Word.parse("0110"))
    assert any("lps" in p and "oracle=''" in p for p in problems)


# ---------------------------------------------------------------- one fault per comparison

FW = Word.parse("0010110")  # rich, not a palindrome, switches at n = 3
NR = Word.parse("00101100110100")  # defect 1


def _at(match, wrong):
    """A fault: the real answer, except wrong(answer) on the arguments match."""

    def make(real):
        def fault(*args):
            out = real(*args)
            return wrong(out) if args == match else out

        return fault

    return make


def _drop_first(key=lambda x: x.text):
    return lambda out: frozenset(sorted(out, key=key)[1:])


def _skew_index(target, name, wrong):
    """A fault for PalIndex: the index of target answers wrong(real) for name."""

    class Skewed:
        def __init__(self, idx):
            self._idx = idx

        def __getattr__(self, attr):
            value = getattr(self._idx, attr)
            return wrong(value) if attr == name else value

    def make(real):
        def build(word):
            idx = real(word)
            return Skewed(idx) if word == target else idx

        return build

    return make


def _drop_longest(method):
    return lambda: frozenset(sorted(method(), key=len)[:-1])


def _fault(word, seeded, name, make, expected, id, module=crosscheck, also=()):
    """One case: name in module, and each (name, make) in also, made faulty."""
    return pytest.param(word, seeded, module, ((name, make),) + also, expected, id=id)


_FAULTS = [
    _fault(FW, False, "PalIndex", _skew_index(FW, "palindromes", _drop_longest),
           ["'0010110': palindrome set: fast=['', '0', '00', '010', '1', '101', '11'] "
            "oracle=['', '0', '00', '010', '0110', '1', '101', '11']"],
           "palindrome-set"),
    _fault(FW, False, "is_rich", _at((FW,), lambda b: not b),
           ["'0010110': is_rich: fast=False oracle=True"], "is_rich"),
    _fault(FW, False, "defect", _at((FW,), lambda d: d + 1),
           ["'0010110': defect: fast=1 oracle=0"], "defect"),
    _fault(FW, False, "lps", _at((FW,), lambda u: EMPTY),
           ["'0010110': lps: fast='' oracle='0110'"], "lps"),
    _fault(FW, False, "lpp", _at((FW,), lambda u: EMPTY),
           ["'0010110': lpp: fast='' oracle='00'"], "lpp"),
    _fault(FW, False, "lpps", _at((FW,), lambda u: FW),
           ["'0010110': lpps: fast='0010110' oracle='0110'"], "lpps"),
    _fault(FW, False, "lppp", _at((FW,), lambda u: FW),
           ["'0010110': lppp: fast='0010110' oracle='00'"], "lppp"),
    _fault(FW, False, "oracle_closure", _at((FW,), lambda c: FW),
           ["'0010110': closure: fast='0010110100' oracle='0010110'"], "closure",
           module=oracle),
    _fault(FW, False, "switches", _at((FW, 3), _drop_first(lambda r: r.word.text)),
           ["'0010110': switches(n=3): fast=['011', '110'] "
            "oracle=['001', '011', '110']"],
           "switches"),
    _fault(FW, False, "switch_pairs",
           _at((FW, 3), _drop_first(lambda p: (p.core.text, p.letter))),
           ["'0010110': switch_pairs(n=3): fast=[('0', 1), ('1', 0), ('1', 1)] "
            "oracle=[('0', 0), ('0', 1), ('1', 0), ('1', 1)]"],
           "switch_pairs"),
    _fault(FW, False, "oracle_max_switch_count", _at((FW, 7), lambda g: g + 1),
           ["'0010110': max_switch_count(n=7): fast=3 oracle=4"], "max_switch_count",
           module=oracle),
    _fault(FW, False, "complete_returns", _at((FW, Word.parse("0")), _drop_first()),
           ["'0010110': complete_returns(u='0'): fast=['010', '0110'] "
            "oracle=['00', '010', '0110']"],
           "complete_returns"),
    _fault(FW, False, "cores_with_lpps", _at((FW, 1, EMPTY), _drop_first()),
           ["'0010110': cores_with_lpps(n=1, r=''): fast=['1'] oracle=['0', '1']"],
           "cores_with_lpps"),
    # sampled mode calls the same wrappers as the exhaustive mode
    _fault(W3, True, "is_rich", _at((W3,), lambda b: not b),
           ["'1100100010011001010': is_rich: fast=False oracle=True",
            "'1100100010011001010': defect: fast=-1 oracle=0"],
           "sampled-is_rich", also=(("defect", _at((W3,), lambda d: d - 1)),)),
    _fault(NR, True, "defect", _at((NR,), lambda d: d + 1),
           ["'00101100110100': defect: fast=2 oracle=1"], "sampled-defect"),
    _fault(W3, True, "lps", _at((W3,), lambda u: EMPTY),
           ["'1100100010011001010': lps: fast='' oracle='01010'"], "sampled-lps"),
    _fault(W3, True, "lpp", _at((W3,), lambda u: EMPTY),
           ["'1100100010011001010': lpp: fast='' oracle='1100100010011'"],
           "sampled-lpp"),
    _fault(W3, True, "lpps", _at((W3,), lambda u: W3),
           ["'1100100010011001010': lpps: fast='1100100010011001010' oracle='01010'"],
           "sampled-lpps"),
    _fault(W3, True, "lppp", _at((W3,), lambda u: W3),
           ["'1100100010011001010': lppp: fast='1100100010011001010' "
            "oracle='1100100010011'"],
           "sampled-lppp"),
]


@pytest.mark.parametrize("word, seeded, module, patches, expected", _FAULTS)
def test_every_comparison_reports_its_fault(
    monkeypatch, word, seeded, module, patches, expected
):
    # one side of one comparison gives a wrong answer on one input: exactly
    # that comparison reports it, in the fixed mismatch format
    for name, make in patches:
        monkeypatch.setattr(module, name, make(getattr(module, name)))
    rng = random.Random(5) if seeded else None
    assert compare_word(word, rng) == expected


# ---------------------------------------------------------------- the shared run


def _run_state(tree):
    return len(tree), tree._len, tree._link, tree._end, tree._prev


def _clear_word_caches():
    for memo in (paltree._run, paltree._lpps_of, structures._switch_table,
                 structures._switch_records, bounds._profile_of):
        memo.cache_clear()


def test_queries_leave_the_shared_run_as_built():
    rng = random.Random(25)
    seeded = [crosscheck._random_word(rng, q, 40) for q in (2, 3, 4)]
    for w in [EMPTY, Word.parse("0"), Word.parse("0110"), FW, NR, W3, W37, WG, *seeded]:
        _clear_word_caches()
        run, fresh = paltree._run(w.chars), _run_state(paltree._tree_of(w.chars))
        idx = paltree.PalIndex(w)
        idx.palindromes(), idx.counts_by_prefix
        paltree.is_rich(w), paltree.defect(w), paltree.lpps(w), paltree.lppp(w)
        if len(w):
            paltree.lps(w), paltree.lpp(w)
        structures.palindromic_closure(w)
        for n in range(len(w) + 1):
            structures.switches(w, n)
        structures.max_switch_count(w, len(w))
        bounds.word_profile(w)
        bounds.evaluate_word(w, include_closure=True, force=True)
        # every query above that reads a run read this one
        assert paltree._run(w.chars) is run
        # the lpps of the cores run trees of their own
        for n in range(len(w) + 1):
            for rec in structures.switches(w, n):
                structures.cores_with_lpps(w, n - 2, paltree.lpps(rec.core))
        compare_word(w)
        assert _run_state(run) == fresh, w
        assert _run_state(paltree._run(w.chars)) == fresh, w


def test_compare_word_runs_each_word_once(monkeypatch):
    # the lpps of the switch cores run trees of their own, after the last
    # query that reads the word's run, so they never make it run again
    built = Counter()
    tree_of = paltree._tree_of

    def counted(chars):
        built[chars] += 1
        return tree_of(chars)

    monkeypatch.setattr(paltree, "_tree_of", counted)
    rng = random.Random(25)
    full = [Word.from_symbols(t, 2) for t in itertools.product(range(2), repeat=9)]
    full += [W37, WG] + [crosscheck._random_word(rng, q, 60) for q in (2, 3, 4)]
    sampled = [crosscheck._random_word(rng, q, 200) for q in (2, 4) for _ in range(5)]
    most_cores = 0
    for w in full + sampled:
        _clear_word_caches()
        built.clear()
        compare_word(w, rng if w in sampled else None)
        assert built[w.chars] == 1, w
        most_cores = max(most_cores, sum(built.values()) - 1)
    # some word ran more cores than the cache of runs holds
    assert most_cores > paltree._run.cache_info().maxsize
