"""CLI surface: output shapes, exit codes, stdout purity, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import richlab

from richlab import cli
from richlab.bounds import BOUND_IDS, evaluate_word
from richlab.cli import AnalysisReport, _emit_reports, _portable, analysis_report, main
from richlab.structures import palindromic_closure
from richlab.words import Word

W3 = "1100100010011001010"
WG = "5112211311001131133114111146"
W37 = "2110112333211011454110116110116778776"
TRIBONACCI = "010201001020101020100102"
WITNESS = "00101100110100"  # non-rich palindrome; forced B9 fails at n=4


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- analyze


def test_analyze_golden(capsys):
    code, out, _ = run(capsys, ["analyze", "0110"])
    assert code == 0
    assert json.loads(out) == {
        "word": "0110",
        "alphabet_size": 2,
        "rich": True,
        "defect": 0,
        "factor_counts": [1, 2, 3, 2, 1],
        "palindromic_counts": [1, 2, 1, 0, 1],
        "switch_counts": [0, 0, 0, 2, 0],
        "max_switch_count": 2,
        "lps": "0110",
        "lpp": "0110",
        "lpps": "0",
        "lppp": "0",
    }


def test_analyze_empty_word(capsys):
    code, out, _ = run(capsys, ["analyze", ""])
    assert code == 0
    d = json.loads(out)
    assert d["rich"] and d["defect"] == 0
    assert d["factor_counts"] == [1]
    assert d["lps"] is None and d["lppp"] is None


def test_analyze_switch_counts(capsys):
    code, out, _ = run(capsys, ["analyze", WG])
    d = json.loads(out)
    assert code == 0
    assert d["switch_counts"][8] == 3
    assert d["max_switch_count"] == 16
    assert d["rich"]


def test_analyze_explicit_alphabet(capsys):
    code, out, _ = run(capsys, ["analyze", "abba", "--alphabet", "ab"])
    assert code == 0
    d = json.loads(out)
    # words render in the canonical display alphabet, whatever was parsed
    assert d["word"] == "0110" and d["alphabet_size"] == 2


def test_analysis_report_round_trip():
    report = analysis_report(Word.parse(W3))
    assert AnalysisReport.from_json_dict(report.to_json_dict()) == report


# ---------------------------------------------------------------- switches


def test_switches_json_lines(capsys):
    code, out, _ = run(capsys, ["switches", WG, "--n", "8"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["word"] for r in rows] == ["14111146", "31133114", "51122113"]
    assert rows[0] == {"left": "1", "core": "411114", "right": "6", "word": "14111146"}


def test_switches_empty_result(capsys):
    code, out, _ = run(capsys, ["switches", "0110", "--n", "2"])
    assert code == 0 and out == ""


# ---------------------------------------------------------------- closure


def test_closure_output(capsys):
    assert run(capsys, ["closure", "011"]) == (0, "0110\n", "")
    assert run(capsys, ["closure", "12321"])[1] == "12321\n"


# ---------------------------------------------------------------- verify


def test_verify_single_bound_golden(capsys):
    code, out, _ = run(capsys, ["verify", W3, "--bounds", "B8", "--n", "3"])
    assert code == 0
    (report,) = json.loads(out)
    assert report["bound_id"] == "B8"
    assert report["holds"] and report["equality"]
    assert report["detail"] == "3+2 = 10-7+2"


def test_verify_all_bounds_exit_zero(capsys):
    code, out, _ = run(capsys, ["verify", W3])
    assert code == 0
    reports = json.loads(out)
    assert {r["bound_id"] for r in reports} == set(BOUND_IDS)
    assert all(r["holds"] for r in reports)


def test_verify_forced_violation_exits_one(capsys):
    code, out, _ = run(
        capsys, ["verify", WITNESS, "--bounds", "B9", "--n", "4", "--force"]
    )
    assert code == 1
    (report,) = json.loads(out)
    assert not report["holds"] and not report["covered"]
    assert (report["lhs"], report["rhs"]) == (10, 8)
    assert report["detail"] == "10 <= 2*3*2 - 2*3 + 2 = 8"


def test_verify_non_rich_without_force_is_usage_error(capsys):
    code, out, err = run(capsys, ["verify", WITNESS, "--bounds", "B1", "--n", "3"])
    assert code == 2 and out == ""
    assert "error:" in err
    # the bounds skipped at this order are reported before the error
    code, out, err = run(capsys, ["verify", WITNESS, "--n", "2"])
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "skipped B1: B1 needs n > 2",
        f"error: word {WITNESS!r} is not rich; pass force=True to evaluate anyway",
    ]


def test_verify_conflicting_order_flags(capsys):
    code, _, err = run(capsys, ["verify", W3, "--n", "3", "--all-n"])
    assert code == 2
    assert "mutually exclusive" in err


def test_verify_unknown_bound_id(capsys):
    code, _, err = run(capsys, ["verify", W3, "--bounds", "B99"])
    assert code == 2
    assert "unknown bound ids" in err and "B12" in err


@pytest.mark.parametrize("command", [
    ["verify", W3], ["sweep", "--q", "2", "--max-len", "3"],
])
@pytest.mark.parametrize("bounds", [",", ""])
def test_bounds_naming_no_bound_is_usage_error(capsys, command, bounds):
    code, out, err = run(capsys, [*command, "--bounds", bounds])
    assert (code, out, err) == (2, "", "error: --bounds names no bound\n")


def test_verify_order_skips_bounds_that_do_not_apply(capsys):
    code, out, err = run(capsys, ["verify", "abaab", "--n", "2"])
    assert code == 0
    assert err == "skipped B1: B1 needs n > 2\n"
    ids = {r["bound_id"] for r in json.loads(out)}
    assert ids == set(BOUND_IDS) - {"B1"}


def test_verify_order_skips_b8_b9_without_closure_or_length(capsys):
    # F(W3, 5) misses the reversal of 10100
    code, out, err = run(capsys, ["verify", W3, "--n", "4"])
    assert code == 0
    reason = f"factors of length 5 of {W3!r} are not closed under reversal"
    assert err.splitlines() == [f"skipped B8: {reason}", f"skipped B9: {reason}"]
    assert {r["bound_id"] for r in json.loads(out)} == set(BOUND_IDS) - {"B8", "B9"}
    code, out, err = run(capsys, ["verify", "01", "--n", "2"])
    assert code == 0
    assert err.splitlines() == [
        "skipped B1: B1 needs n > 2",
        "skipped B8: needs |w| >= 3",
        "skipped B9: needs |w| >= 3",
    ]
    assert "B8" not in {r["bound_id"] for r in json.loads(out)}


def test_verify_order_reports_every_bound_where_all_apply(capsys):
    code, out, err = run(capsys, ["verify", W3, "--n", "3"])
    assert code == 0 and err == ""
    assert {r["bound_id"] for r in json.loads(out)} == set(BOUND_IDS)


def test_verify_named_bound_at_inadmissible_order_is_usage_error(capsys):
    code, out, err = run(capsys, ["verify", "abaab", "--bounds", "B1", "--n", "2"])
    assert code == 2 and out == ""
    assert err == "error: B1 needs n > 2\n"
    code, _, err = run(capsys, ["verify", W3, "--bounds", "B2,B8", "--n", "4"])
    assert code == 2
    assert "not closed under reversal" in err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_verify_b2_needs_a_positive_order(capsys, n):
    # every bound is skipped at an order below 1, B2 among them
    code, out, err = run(capsys, ["verify", "0010", "--n", n])
    assert code == 0 and json.loads(out) == []
    assert "skipped B2: B2 needs n > 0" in err.splitlines()
    code, out, err = run(capsys, ["verify", "0010", "--n", n, "--bounds", "B2"])
    assert code == 2 and out == ""
    assert err == "error: B2 needs n > 0\n"


def test_verify_with_closure_adds_reports(capsys):
    _, base, _ = run(capsys, ["verify", W3, "--bounds", "B8"])
    _, more, _ = run(capsys, ["verify", W3, "--bounds", "B8", "--with-closure"])
    assert len(json.loads(more)) > len(json.loads(base))


def test_verify_order_runs_bounds_skipped_on_the_word_on_its_closure(capsys):
    # B8/B9 need |w| >= 3, but the closure 010 admits both at n = 2
    code, out, err = run(capsys, ["verify", "01", "--n", "2", "--with-closure"])
    assert code == 0
    assert "skipped B8: needs |w| >= 3" in err.splitlines()
    reports = json.loads(out)
    _, closure_out, _ = run(capsys, ["verify", "010", "--n", "2", "--bounds", "B8,B9"])
    assert reports[-2:] == json.loads(closure_out)
    assert [r["bound_id"] for r in reports].count("B8") == 1
    # a bound that applies to neither the word nor its closure stays skipped
    code, out, err = run(capsys, ["verify", "01", "--n", "3", "--with-closure"])
    assert code == 0
    assert not {"B8", "B9"} & {r["bound_id"] for r in json.loads(out)}


@pytest.mark.parametrize("batch", [1, 3, cli._BATCH])
def test_streamed_reports_equal_the_whole_list_dumped(monkeypatch, batch):
    monkeypatch.setattr(cli, "_BATCH", batch)
    many = evaluate_word(Word.parse(W3), include_closure=True)
    failing = evaluate_word(Word.parse(WITNESS), ["B9"], [4], force=True)
    assert len(many) > 3 and not failing[0].holds
    for reports in ([], many[:1], many[:3], many, many + failing, failing + many):
        pieces = list(_emit_reports(iter(reports)))
        whole = json.dumps(_portable([r.to_json_dict() for r in reports]), indent=2)
        assert "".join(pieces) == whole + "\n"
        # one piece per batch, then the closing one
        assert len(pieces) == -(-len(reports) // batch) + 1


def test_verify_failing_part_way_writes_no_stdout(capsys, monkeypatch):
    # every report is built before any is written, so an error after the
    # first one leaves stdout empty
    def rows(w, *args):
        yield from evaluate_word(w, ["B1"], [3])
        raise RuntimeError("part way")

    monkeypatch.setattr(cli, "_word_rows", rows)
    code, out, err = run(capsys, ["verify", W3])
    assert (code, out) == (3, "")
    assert err == "internal error: RuntimeError: part way\n"


class _Unwritable:
    def write(self, text):
        raise AssertionError(f"a command wrote {text!r} to stdout")


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", W3],
        ["switches", W3, "--n", "3"],
        ["closure", "0010"],
        ["verify", W3, "--with-closure"],
        ["verify", WITNESS, "--bounds", "B9", "--n", "4", "--force"],
        ["sweep", "--q", "2", "--max-len", "5"],
        ["sweep", "--q", "2", "--max-len", "5", "--csv"],
        ["enumerate", "--q", "2", "--max-len", "6"],
        ["enumerate", "--q", "3", "--max-len", "4", "--csv"],
        ["oracle-check", "--exhaustive-max-len", "5"],
    ],
)
def test_commands_return_their_stdout_and_write_none(capsys, monkeypatch, argv):
    # only main writes stdout, so no command can have written any of it
    # before it fails
    args = cli.build_parser().parse_args(argv)
    with monkeypatch.context() as m:
        m.setattr(sys, "stdout", _Unwritable())
        code, pieces = args.func(args)
        text = "".join(pieces)
    assert (code, text) == run(capsys, argv)[:2]


@pytest.mark.parametrize(
    "argv, profiled",
    [
        ([W3, "--n", "3"], [W3]),
        (["01", "--n", "2", "--with-closure"], ["01", "closure 010"]),
        (["0010", "--n", "4", "--with-closure"], ["0010", "closure 00100"]),
        ([W3, "--with-closure"], [W3, "closure 110010001001100101001100100010011"]),
        (["0110", "--n", "2", "--with-closure"], ["0110"]),  # its own closure
    ],
)
def test_verify_profiles_each_word_once(capsys, monkeypatch, argv, profiled):
    # _profile_run (word_profile's one pass) profiles the word, and never
    # its closure, which _closure_profile profiles
    from richlab import bounds

    seen = []
    profile_run, closure_profile = bounds._profile_run, bounds._closure_profile

    def word_spy(w):
        seen.append(w.text)
        return profile_run(w)

    def closure_spy(c, q, tree, pal):
        seen.append(f"closure {Word(c, q).text}")
        return closure_profile(c, q, tree, pal)

    monkeypatch.setattr(bounds, "_profile_run", word_spy)
    monkeypatch.setattr(bounds, "_closure_profile", closure_spy)
    code, _, _ = run(capsys, ["verify", *argv])
    assert code == 0 and seen == profiled


# ---------------------------------------------------------------- parse errors


def test_parse_error_names_the_character(capsys):
    code, out, err = run(capsys, ["analyze", "01!"])
    assert code == 2 and out == ""
    assert "'!'" in err and "position 3" in err


def test_alphabet_violation_is_a_parse_error(capsys):
    code, _, err = run(capsys, ["analyze", "abc", "--alphabet", "ab"])
    assert code == 2
    assert "'c'" in err


# ---------------------------------------------------------------- enumerate


def test_enumerate_csv(capsys):
    code, out, _ = run(capsys, ["enumerate", "--q", "2", "--max-len", "8", "--csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,count"
    assert lines[1] == "0,1"
    assert lines[-1] == "8,252"


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, ["enumerate", "--q", "3", "--max-len", "4"])
    assert code == 0
    d = json.loads(out)
    assert (d["q"], d["max_len"], d["canonical"]) == (3, 4, False)
    assert d["counts"][-1] == {"n": 4, "count": 75}


def test_enumerate_emit(tmp_path, capsys):
    target = tmp_path / "words.txt"
    code, out, _ = run(
        capsys, ["enumerate", "--q", "2", "--max-len", "3", "--emit", str(target)]
    )
    assert code == 0
    lines = target.read_text(encoding="ascii").split("\n")
    assert lines.pop() == ""  # trailing newline
    assert lines == ["", "0", "1", "00", "01", "10", "11",
                     "000", "001", "010", "011", "100", "101", "110", "111"]
    # the JSON still reports per-length counts
    assert [c["count"] for c in json.loads(out)["counts"]] == [1, 2, 4, 8]


def test_enumerate_count_only_is_an_unknown_argument(capsys):
    code, out, err = run(
        capsys, ["enumerate", "--q", "2", "--max-len", "3", "--count-only"]
    )
    assert code == 2 and out == ""
    assert "unrecognized arguments: --count-only" in err


def test_enumerate_canonical(capsys):
    code, out, _ = run(
        capsys, ["enumerate", "--q", "2", "--max-len", "6", "--canonical"]
    )
    assert code == 0
    assert [c["count"] for c in json.loads(out)["counts"]] == [1, 1, 2, 4, 8, 16, 32]


def test_enumerate_canonical_counts_each_orbit_once(capsys):
    from richlab.enumeration import enumerate_rich

    argv = ["enumerate", "--q", "3", "--max-len", "7", "--canonical", "--csv"]
    expected = [f"{n},{sum(1 for _ in enumerate_rich(3, n, canonical=True))}"
                for n in range(8)]
    for extra in ([], ["--jobs", "2", "--shard-prefix", "3"]):
        code, out, _ = run(capsys, argv + extra)
        assert code == 0
        assert out.splitlines() == ["n,count"] + expected


# ---------------------------------------------------------------- sweep


def test_sweep_csv_and_timing_on_stderr(capsys):
    code, out, err = run(capsys, ["sweep", "--q", "2", "--max-len", "6", "--csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("bound_id,words,reports,passes,violations,equalities,"
                        "uncovered,min_slack_log2,max_slack_log2")
    assert len(lines) == 1 + len(BOUND_IDS)
    assert all(line.split(",")[4] == "0" for line in lines[1:])  # no violations
    assert "sweep took" in err


def test_sweep_json_is_byte_identical_across_runs(capsys):
    _, first, _ = run(capsys, ["sweep", "--q", "2", "--max-len", "5"])
    _, second, _ = run(capsys, ["sweep", "--q", "2", "--max-len", "5"])
    assert first == second
    d = json.loads(first)
    assert d["bound_ids"] == list(BOUND_IDS)
    assert "elapsed_seconds" not in d


def test_sweep_bound_subset(capsys):
    code, out, _ = run(
        capsys, ["sweep", "--q", "2", "--max-len", "5", "--bounds", "B3,B1"]
    )
    assert code == 0
    assert json.loads(out)["bound_ids"] == ["B1", "B3"]


# ---------------------------------------------------------------- oracle-check


def test_oracle_check_exhaustive(capsys):
    code, out, err = run(capsys, ["oracle-check", "--exhaustive-max-len", "4"])
    assert code == 0
    (entry,) = json.loads(out)
    assert entry["ok"] and entry["mismatches"] == []
    assert entry["words_checked"] == 31
    assert "elapsed_seconds" not in entry
    assert "q2:len4:31" in err


def test_oracle_check_cells_deterministic(capsys):
    argv = ["oracle-check", "--cells", "q3:len30:10", "--seed", "5"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    (entry,) = json.loads(first)
    assert entry["ok"] and entry["cell"] == "q3:len30:10"


def test_oracle_check_requires_some_work(capsys):
    code, _, err = run(capsys, ["oracle-check"])
    assert code == 2
    assert "nothing to check" in err


def test_oracle_check_bad_cell_spec(capsys):
    code, _, err = run(capsys, ["oracle-check", "--cells", "nope"])
    assert code == 2
    assert "expected the form" in err


def test_oracle_check_stdout_does_not_depend_on_the_cpu_count(capsys, monkeypatch):
    argv = ["oracle-check", "--cells", "q2:len12:6,q3:len30:4,q4:len20:3", "--seed", "3"]
    monkeypatch.setattr("richlab.crosscheck._cpus", lambda: 1)
    code_one, one, _ = run(capsys, argv)
    monkeypatch.setattr("richlab.crosscheck._cpus", lambda: 2)
    code_two, two, _ = run(capsys, argv)
    assert code_one == code_two == 0
    assert one == two


@pytest.mark.parametrize("exhaustive", [[], ["--exhaustive-max-len", "12"]])
@pytest.mark.parametrize("cell", ["q2:len99999999:1", "q2:len6000:1"])
def test_oracle_check_cell_over_the_length_cap(capsys, monkeypatch, cell, exhaustive):
    # refused before a single word is generated or checked, so even a huge
    # length returns at once instead of building the word
    monkeypatch.delenv("RICHLAB_MAX_WORD_LEN", raising=False)

    def no_words(*args):
        raise AssertionError("a word was generated")

    monkeypatch.setattr("richlab.crosscheck._random_word", no_words)
    monkeypatch.setattr("richlab.cli.exhaustive_check", no_words)
    code, out, err = run(
        capsys, ["oracle-check", "--cells", f"q2:len20:1,{cell}", *exhaustive]
    )
    length = cell.split(":")[1].removeprefix("len")
    assert code == 2 and out == ""
    assert err == f"error: cell {cell}: word length {length} exceeds oracle cap 5000\n"


def test_oracle_check_unparseable_length_cap(capsys, monkeypatch):
    monkeypatch.setenv("RICHLAB_MAX_WORD_LEN", "abc")
    code, out, err = run(capsys, ["oracle-check", "--exhaustive-max-len", "2"])
    assert code == 2 and out == ""
    assert err == "error: RICHLAB_MAX_WORD_LEN='abc' is not an integer\n"


# ---------------------------------------------------------------- plumbing


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["switches", "0110", "--n", "-3"], "--n"),
        (["sweep", "--q", "2", "--max-len", "-1"], "--max-len"),
        (["sweep", "--q", "2", "--max-len", "3", "--jobs", "0"], "--jobs"),
        (["enumerate", "--q", "2", "--max-len", "3", "--jobs", "0"], "--jobs"),
        (["enumerate", "--q", "2", "--max-len", "-1"], "--max-len"),
        (["enumerate", "--q", "2", "--max-len", "3", "--shard-prefix", "-2",
          "--jobs", "2"], "--shard-prefix"),
        (["oracle-check", "--exhaustive-max-len", "-1"], "--exhaustive-max-len"),
    ],
)
def test_out_of_range_integers_are_usage_errors(capsys, argv, flag):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "usage:" in err and f"argument {flag}: must be >=" in err


@pytest.mark.parametrize("command", ["sweep", "enumerate"])
def test_empty_alphabet_is_a_usage_error(capsys, command):
    code, out, err = run(capsys, [command, "--q", "-1", "--max-len", "3"])
    assert code == 2 and out == ""
    assert err == "error: alphabet size must be >= 1\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--q", "256", "--max-len", "2"], "alphabet size must be <= 255"),
        (["enumerate", "--q", "256", "--max-len", "2"], "alphabet size must be <= 255"),
        (["oracle-check", "--exhaustive-q", "256", "--exhaustive-max-len", "2"],
         "alphabet size 256 outside 1..255"),
    ],
)
def test_alphabet_past_the_largest_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "q, message", [("256", "must be <= 255"), ("0", "must be >= 1")]
)
def test_enumerate_emit_checks_the_alphabet_before_opening_its_file(
    capsys, tmp_path, q, message
):
    target = tmp_path / "words.txt"
    code, out, err = run(
        capsys, ["enumerate", "--q", q, "--max-len", "2", "--emit", str(target)]
    )
    assert code == 2 and out == ""
    assert err == f"error: alphabet size {message}\n"
    assert not target.exists()


def test_non_integer_flag_keeps_argparse_message(capsys):
    code, _, err = run(capsys, ["switches", "0110", "--n", "x"])
    assert code == 2
    assert "invalid int value: 'x'" in err


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(capsys, ["bogus"])[0] == 2
    assert run(capsys, [])[0] == 2


def test_unexpected_error_exits_three(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("walker broke")

    monkeypatch.setattr("richlab.cli._cmd_closure", boom)
    code, out, err = run(capsys, ["closure", "0110"])
    assert code == 3 and out == ""
    assert err == "internal error: RuntimeError: walker broke\n"


@pytest.mark.parametrize(
    "argv, verdict",
    [
        (["sweep", "--q", "2", "--max-len", "5"], 0),
        (["verify", WITNESS, "--bounds", "B9", "--n", "4", "--force"], 1),
    ],
)
def test_a_reader_that_stops_early_keeps_the_exit_code(argv, verdict):
    # the read end of the pipe is closed before the command writes, so its
    # stdout is broken for certain; `| head` breaks it only by chance
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "richlab.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == verdict
    assert "error" not in err and "Traceback" not in err


def test_importing_the_cli_loads_no_mpmath():
    # the log-domain decisions run in plain integers, so no cold process
    # pays for a high-precision library
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, richlab.cli; print('mpmath' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
    )
    assert done.stdout == "False\n"


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == richlab.__version__


def test_floats_are_clamped_to_twelve_significant_digits():
    assert _portable(0.1234567890123456) == 0.123456789012
    assert _portable({"x": [1.0 / 3.0]}) == {"x": [0.333333333333]}
    assert _portable(5) == 5 and _portable("s") == "s"


# ---------------------------------------------------------------- goldens

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "argv,name",
    [
        (["sweep", "--q", "2", "--max-len", "8"], "sweep_q2_len8.json"),
        (["sweep", "--q", "3", "--max-len", "5", "--csv"], "sweep_q3_len5.csv"),
        (["verify", W3, "--with-closure"], "verify_w3_closure.json"),
        # several B2 fibres per order: the detail text and the order by r
        (["verify", "5112211311001131133114"], "verify_wu.json"),
        (["verify", "--force", "00101100110100"], "verify_witness_force.json"),
        (["analyze", "00101100110100"], "analyze_witness.json"),
        # the switches command: even cores, one core in two switches, and a
        # q3 Tribonacci prefix at two core lengths
        (["switches", WG, "--n", "8"], "switches_wg_n8.jsonl"),
        (["switches", W37, "--n", "7"], "switches_w37_n7.jsonl"),
        (["switches", TRIBONACCI, "--n", "5"], "switches_tribonacci_n5.jsonl"),
        (["switches", TRIBONACCI, "--n", "9"], "switches_tribonacci_n9.jsonl"),
    ],
)
def test_stdout_matches_recorded_golden(capsys, argv, name):
    # the sweeps were recorded from the report-building sweep that the
    # profile fold replaced; the verify, analyze and switches outputs from
    # code that found switches with a second algorithm, Manacher's radii
    code, out, _ = run(capsys, argv)
    assert code == int('"holds": false' in out)  # 1 exactly when a report fails
    assert out.encode() == (GOLDEN / name).read_bytes()


def test_verify_explicit_orders_on_the_closure(capsys):
    # verify W --n k --with-closure, with and without --bounds B8,B9, at
    # every order up to one past the closure: stdout, stderr and exit code
    # as recorded (a sha256 prefix per call) when a closure was profiled
    # like any word.  The closure's profile has no switch arrays now, so
    # this guards the admissibility and past-the-end checks on it.
    want = json.loads((GOLDEN / "verify_closure_orders.json").read_text())
    got = {}
    for w in (WG, W37, "0010"):
        top = len(palindromic_closure(Word.parse(w))) + 1
        for extra in ([], ["--bounds", "B8,B9"]):
            for k in range(1, top + 1):
                argv = ["verify", w, "--n", str(k), "--with-closure", *extra]
                text = json.dumps(run(capsys, argv))
                got[" ".join(argv)] = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert got == want
