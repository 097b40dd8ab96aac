"""Brute-force reference implementations: definitional goldens and guards."""

import ast
import itertools
import pathlib

import pytest

from richlab.oracle import (
    OracleLimitError,
    oracle_closure,
    oracle_complete_returns,
    oracle_cores_with_lpps,
    oracle_defect,
    oracle_factor_set,
    oracle_is_rich,
    oracle_lpp,
    oracle_lppp,
    oracle_lpps,
    oracle_lps,
    oracle_max_switch_count,
    oracle_palindrome_set,
    oracle_switch_pairs,
    oracle_switches,
)
from richlab.words import Word

W = Word.parse

W37 = W("2110112333211011454110116110116778776")
WG = W("5112211311001131133114111146")


def test_palindrome_set_goldens():
    assert oracle_palindrome_set(Word("")) == frozenset([Word("")])
    got = {u.text for u in oracle_palindrome_set(W("0110"))}
    assert got == {"", "0", "1", "11", "0110"}
    # non-rich length-8 word: strictly fewer than 9 distinct palindromes
    assert len(oracle_palindrome_set(W("00110100"))) < 9
    assert len(oracle_palindrome_set(W37)) == len(W37) + 1


def test_factor_set_golden():
    got = {u.text for u in oracle_factor_set(W("0110100"), 3)}
    assert got == {"011", "110", "101", "010", "100"}
    assert oracle_factor_set(W("01"), 0) == frozenset([Word("")])


def test_richness_and_defect_goldens():
    assert oracle_is_rich(W("1100100010011001010"))
    assert not oracle_is_rich(W("00110100"))
    assert oracle_defect(Word("")) == 0
    assert oracle_defect(W("00110100")) >= 1


def test_switches_golden():
    got = {rec.word.text for rec in oracle_switches(WG, 8)}
    assert got == {"51122113", "31133114", "14111146"}
    assert {rec.word.text for rec in oracle_switches(W37, 7)} == {
        "2110114", "4110116",
    }
    assert oracle_switches(W37, 2) == frozenset()


def test_switch_pairs_golden():
    pairs = {(p.core.text, p.letter) for p in oracle_switch_pairs(WG, 8)}
    assert pairs == {
        ("112211", 3), ("112211", 5),
        ("113311", 3), ("113311", 4),
        ("411114", 1), ("411114", 6),
    }


def test_complete_returns_goldens():
    got = oracle_complete_returns(W("321234321252126"), W("212"))
    assert W("212343212") in got
    assert oracle_complete_returns(W("00"), W("0")) == frozenset([W("00")])
    assert oracle_complete_returns(W("0110"), W("01")) == frozenset()


def test_lps_family_goldens():
    assert oracle_lps(W("0110100")) == W("00")
    assert oracle_lpp(W("1232")) == W("1")
    assert oracle_lpps(W("112211")) == W("11")
    assert oracle_lppp(W("112211")) == W("11")
    assert oracle_lpps(W("5")) == Word("", 6)


def test_closure_goldens():
    assert oracle_closure(W("011")) == W("0110")
    assert oracle_closure(W("12321")) == W("12321")


def test_scans_equal_the_literal_definitions():
    # the palindrome and switch scans skip windows whose end letters rule
    # them out; compare them with the plain definitions over every substring
    def is_pal(u):
        return u == u[::-1]

    for q, max_len in ((2, 9), (3, 6)):
        for n_len in range(max_len + 1):
            for t in itertools.product(range(q), repeat=n_len):
                w = Word.from_symbols(t, q)
                s = w.chars
                subs = {s[i:j] for i in range(n_len + 1) for j in range(i, n_len + 1)}
                assert {p.chars for p in oracle_palindrome_set(w)} == {
                    u for u in subs if is_pal(u)
                }
                for n in range(n_len + 1):
                    want = {
                        (ord(u[0]), u[1:-1], ord(u[-1]))
                        for u in subs
                        if len(u) == n > 2 and u[0] != u[-1] and is_pal(u[1:-1])
                    }
                    got = oracle_switches(w, n)
                    assert {(r.left, r.core.chars, r.right) for r in got} == want
                    assert all(r.core.alphabet_size == q for r in got)


def test_length_cap_honours_environment(monkeypatch):
    monkeypatch.setenv("RICHLAB_MAX_WORD_LEN", "4")
    with pytest.raises(OracleLimitError):
        oracle_palindrome_set(W("00000"))
    oracle_palindrome_set(W("0000"))  # at the cap: allowed
    monkeypatch.setenv("RICHLAB_MAX_WORD_LEN", "not-a-number")
    with pytest.raises(OracleLimitError, match="'not-a-number'"):
        oracle_palindrome_set(W("00000"))  # unparseable: an error, no fallback


def test_length_cap_is_checked_before_the_switch_memo(monkeypatch):
    monkeypatch.delenv("RICHLAB_MAX_WORD_LEN", raising=False)
    w = W("0110100")
    assert oracle_switches(w, 3)  # the scan of (w, 3) is now remembered
    monkeypatch.setenv("RICHLAB_MAX_WORD_LEN", "4")
    for call in (
        lambda: oracle_switches(w, 3),
        lambda: oracle_switch_pairs(w, 3),
        lambda: oracle_max_switch_count(w, 5),
        lambda: oracle_cores_with_lpps(w, 1, Word("")),
    ):
        with pytest.raises(OracleLimitError):
            call()


def _richlab_imports(module: str) -> set[str]:
    """The richlab modules that module imports anywhere, function bodies too."""
    src = pathlib.Path(f"src/richlab/{module}.py").read_text()
    names = set()
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if not node.level:
                if base != "richlab" and not base.startswith("richlab."):
                    continue
                base = base[len("richlab.") :]
            if base:
                names.add(base.split(".")[0])
            else:  # from . import x
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("richlab.")
            )
    return names


@pytest.mark.parametrize(
    "module,forbidden,needed",
    [
        # the reference side must not import the code it is checking
        ("oracle", {"paltree", "structures", "enumeration", "bounds"}, {"words", "records"}),
        # the switch step lives in structures; bounds builds on it, not back
        ("structures", {"bounds", "enumeration", "crosscheck", "cli"}, {"paltree"}),
    ],
    ids=["oracle", "structures"],
)
def test_module_stays_below_the_layers_it_must_not_import(module, forbidden, needed):
    names = _richlab_imports(module)
    assert names & forbidden == set()
    assert needed <= names
