"""Fast-vs-oracle comparison harness: cell parsing, fuzzing, determinism."""

import pytest

from richlab import oracle
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
