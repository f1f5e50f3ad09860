import argparse
import copy
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ncdisc
from ncdisc import checks, cli
from ncdisc.checks import RunConfig
from ncdisc.cli import main
from ncdisc.cohomology import Cochain, coboundary
from ncdisc.derivations import MAX_GENERATORS, GeneratorDerivation, inner_derivation
from ncdisc.operators import TruncatedOperator, TruncationBasis
from ncdisc.series import Series, max_coeff_diff
from ncdisc.words import Alphabet, Word, enumerate_words

A2 = Alphabet(2)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def scrub_timings(report):
    report = copy.deepcopy(report)
    stack = [report]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            if "elapsed_s" in node:
                node["elapsed_s"] = 0.0
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    return report


def plant(monkeypatch, name, run):
    """Register ``run`` in place of the check ``name``, with its suite parameters."""
    monkeypatch.setitem(checks.CHECKS, name, checks.CHECKS[name]._replace(run=run))


def test_verify_words_passes(capsys):
    code, out = run(capsys, "verify-words", "--max-len", "4")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["suite"] == "words"
    assert report["passed"] is True
    assert all(check["passed"] for check in report["checks"])


def test_package_runs_as_a_module():
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "ncdisc", "verify-words", "--alphabet", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["passed"] is True


def test_verify_operators_passes(capsys):
    code, out = run(capsys, "verify-operators", "--cutoff", "4")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_derivations_runs_where_the_operator_suite_is_refused(capsys):
    argv = ("--alphabet", "44", "--cutoff", "5")
    code, out = run(capsys, "verify-derivations", *argv)
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "derivations"
    names = [check["name"] for check in report["checks"]]
    assert names == [name for name in checks.CHECKS if name.startswith("derivations.")]
    assert all(check["passed"] for check in report["checks"])
    assert main(["report-all", *argv]) == 2
    assert capsys.readouterr().err.startswith("bad configuration:")


def test_verify_cohomology_passes(capsys):
    code, out = run(capsys, "verify-cohomology")
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "cohomology"
    assert report["passed"] is True


def test_report_all_passes_and_merges_sorted(capsys):
    code, out = run(capsys, "report-all", "--max-len", "4", "--cutoff", "4")
    assert code == 0
    report = json.loads(out)
    names = [sub["suite"] for sub in report["reports"]]
    assert names == sorted(names)
    assert {"cohomology", "derivations", "operators", "words"} == set(names)


def test_reports_are_deterministic(capsys):
    args = ("report-all", "--max-len", "3", "--cutoff", "3", "--seed", "7")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert scrub_timings(json.loads(first)) == scrub_timings(json.loads(second))


def test_csv_format(capsys):
    code, out = run(capsys, "verify-words", "--max-len", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "suite,check,passed,elapsed_s"
    assert all(line.startswith("words,") for line in lines[1:])


def test_suites_pass_for_other_alphabet_sizes(capsys):
    code, _ = run(capsys, "verify-words", "--alphabet", "1", "--max-len", "4")
    assert code == 0
    code, _ = run(capsys, "verify-words", "--alphabet", "3", "--max-len", "4")
    assert code == 0
    code, _ = run(capsys, "verify-operators", "--alphabet", "3", "--cutoff", "3")
    assert code == 0


def test_tightened_tolerance_still_passes(capsys):
    code, out = run(capsys, "verify-operators", "--cutoff", "3", "--tol", "1e-14")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_bad_config_is_rejected(capsys):
    code, _ = run(capsys, "verify-words", "--alphabet", "0")
    assert code == 2
    code, _ = run(capsys, "verify-operators", "--tol", "-1")
    assert code == 2


def test_small_cutoffs_are_bad_configurations(capsys):
    for argv in (
        ("verify-operators", "--cutoff", "0"),
        ("verify-operators", "--cutoff", "1"),
        ("report-all", "--cutoff", "1"),
    ):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("bad configuration:")
        assert "Traceback" not in captured.err
    code, out = run(capsys, "verify-operators", "--cutoff", "2")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_dump_matrix_at_cutoff_zero(tmp_path, capsys):
    infile = tmp_path / "series.json"
    infile.write_text(json.dumps(Series(A2, {A2.unit(): 2.0}).to_json_dict()))
    code, out = run(capsys, "verify-operators", "--cutoff", "0", "--dump-matrix", str(infile))
    assert code == 0
    assert out.strip().splitlines() == ["row,col,re,im", "e,e,2.0,0.0"]


def test_solve_derivation_roundtrip(tmp_path, capsys):
    symbol = Series(A2, {A2.word([0, 1]): 2.0, A2.generator(1): -1.0})
    derivation = GeneratorDerivation.inner(symbol)
    infile = tmp_path / "derivation.json"
    outfile = tmp_path / "symbol.json"
    infile.write_text(json.dumps(derivation.to_json_dict()))

    code, out = run(capsys, "solve-derivation", "--in", str(infile), "--out", str(outfile))
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert all(v == 0.0 for v in report["max_generator_deviation"].values())

    recovered = Series.from_json_dict(json.loads(outfile.read_text()))
    assert recovered == symbol
    for a in range(2):
        produced = inner_derivation(recovered, Series.basis(A2.generator(a)))
        assert produced == derivation.value(a)


def test_solve_derivation_worked_example(tmp_path, capsys):
    derivation = GeneratorDerivation.inner(Series.basis(A2.generator(0)))
    infile = tmp_path / "derivation.json"
    infile.write_text(json.dumps(derivation.to_json_dict()))
    code, out = run(capsys, "solve-derivation", "--in", str(infile))
    assert code == 0
    payload = json.loads(out)
    assert payload["series"]["terms"] == [{"word": "z0", "re": 1.0, "im": 0.0}]


def test_solve_derivation_inconsistent_input(tmp_path, capsys):
    poisoned = GeneratorDerivation(A2, {0: Series.unit(A2)})
    infile = tmp_path / "bad.json"
    infile.write_text(json.dumps(poisoned.to_json_dict()))
    code, out = run(capsys, "solve-derivation", "--in", str(infile))
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert report["error"]["check"] == "commuting_support"
    assert report["error"]["word"] == "e"


def test_solve_derivation_bad_input(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, _ = run(capsys, "solve-derivation", "--in", str(missing))
    assert code == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, _ = run(capsys, "solve-derivation", "--in", str(garbled))
    assert code == 2


def test_trivialize_cocycle_roundtrip(tmp_path, capsys):
    eta = Cochain(2, A2, {(A2.generator(0), A2.word([1, 0])): 1.5})
    cocycle = coboundary(eta)
    infile = tmp_path / "cocycle.json"
    outfile = tmp_path / "homotopy.json"
    infile.write_text(json.dumps(cocycle.to_json_dict()))

    code, out = run(capsys, "trivialize-cocycle", "--in", str(infile), "--out", str(outfile))
    assert code == 0
    assert json.loads(out)["passed"] is True

    psi = Cochain.from_json_dict(json.loads(outfile.read_text()))
    assert coboundary(psi) == cocycle


def test_trivialize_zero_cochain(tmp_path, capsys):
    zero = Cochain(2, A2, {})
    infile = tmp_path / "zero.json"
    outfile = tmp_path / "psi.json"
    infile.write_text(json.dumps(zero.to_json_dict()))
    code, _ = run(capsys, "trivialize-cocycle", "--in", str(infile), "--out", str(outfile))
    assert code == 0
    psi = Cochain.from_json_dict(json.loads(outfile.read_text()))
    assert psi.arity == 1
    assert psi.is_zero()


def test_trivialize_cocycle_rejects_non_cocycle(tmp_path, capsys):
    arity2 = Cochain(2, A2, {(A2.word([0, 1]), A2.generator(1)): 1.0})
    infile = tmp_path / "noncocycle.json"
    infile.write_text(json.dumps(arity2.to_json_dict()))
    code, out = run(capsys, "trivialize-cocycle", "--in", str(infile))
    assert code == 1
    report = json.loads(out)
    assert report["error"]["witness"] == ["z0", "z1", "z1"]


#: Solver inputs under tests/data/solvers with their command and exit code.
#: Each ``<case>.out`` is the exact stdout, written by
#: ``python -m ncdisc <command> --in tests/data/solvers/<case>.json``.
GOLDEN_CASES = {
    "cocycle": ("trivialize-cocycle", 0),
    "non_cocycle": ("trivialize-cocycle", 1),
    "derivation": ("solve-derivation", 0),
    "screened_derivation": ("solve-derivation", 1),
    # m = 3: two generators peeled after the first, the symbol has powers of z0
    "derivation_m3": ("solve-derivation", 0),
    # m = 11 (z10 next to z1 and z0), unit slots, a key split into two terms
    # far apart, a key that cancels exactly and one that sums to dust
    "repeated_keys": ("trivialize-cocycle", 0),
    # float data, where the order of a sum shows in the bits: the inner
    # derivation of a seeded symbol t with 8-12 terms on words of length 1-4,
    # each part uniform(-1, 1) * 10**k for k in -6..6, m = 2 and 3
    **{
        f"float_m{m}_s{seed}": ("solve-derivation", 0)
        for m, seed in ((2, 1), (2, 2), (2, 6), (3, 7), (3, 8), (3, 9))
    },
    # float cocycles, where sums round: the coboundary of a seeded cochain
    # of arity 1 (24 terms, words of length 0-5) or 2 (30 terms, length 0-2,
    # letters 0, 1, 10 at m = 11), unit slots included, each part
    # uniform(-1, 1) * 10**k for k in -6..6; every third cochain term is
    # real, and half of the cocycle's zero imaginary parts are written -0.0
    **{
        f"float_cocycle_m{m}_s{seed}": ("trivialize-cocycle", 0)
        for m, seed in ((2, 1), (2, 4), (3, 3), (3, 6), (11, 5), (11, 10))
    },
}


@pytest.mark.parametrize("case", list(GOLDEN_CASES))
def test_solver_output_matches_its_golden_file(case, capsys):
    command, expected = GOLDEN_CASES[case]
    golden = Path(__file__).parent / "data" / "solvers"
    code = main([command, "--in", str(golden / f"{case}.json")])
    assert code == expected
    assert capsys.readouterr().out == (golden / f"{case}.out").read_text()


def test_trivialize_cocycle_rejects_low_arity(tmp_path, capsys):
    low = Cochain(1, A2, {(A2.generator(0),): 1.0})
    infile = tmp_path / "low.json"
    infile.write_text(json.dumps(low.to_json_dict()))
    code, _ = run(capsys, "trivialize-cocycle", "--in", str(infile))
    assert code == 2


def test_replay_reruns_a_check(tmp_path, capsys):
    payload = {
        "check": "words.power_shift_sweep",
        "params": {"m": 2, "w_max": 2, "u_max": 3, "seed": 1},
    }
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    code, out = run(capsys, "verify-words", "--replay", str(path))
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_replay_rejects_unknown_check(tmp_path, capsys):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps({"check": "words.no_such_check", "params": {}}))
    code, _ = run(capsys, "verify-words", "--replay", str(path))
    assert code == 2


def test_replaying_the_mobius_witness_on_a_zero_symbol_is_a_bad_payload(tmp_path, capsys):
    # c = 0 truncated at cutoff 0 is the zero symbol: its norm ratio has no value
    params = {"c": 0.0, "cutoff": 0, "lo": 1.8, "tol": 1e-9}
    path = tmp_path / "payload.json"
    path.write_text(json.dumps({"check": "operators.mobius_witness", "params": params}))
    code = main(["verify-operators", "--replay", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("bad replay payload:")
    assert "zero compression" in captured.err


def test_replay_rejects_params_its_check_refuses(tmp_path, capsys):
    payload = {
        "check": "operators.conjugation",
        "params": {"m": 2, "cutoff": 1, "w_max": 1, "deg": 1, "seed": 1, "trials": 3},
    }
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    code = main(["verify-operators", "--replay", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("bad replay payload:")
    assert "Traceback" not in captured.err


def test_basis_over_the_dimension_budget_is_a_bad_configuration(tmp_path, capsys):
    infile = tmp_path / "series.json"
    infile.write_text(json.dumps(Series(A2, {A2.generator(0): 1.0}).to_json_dict()))
    for argv in (
        ("verify-operators", "--cutoff", "40"),
        ("report-all", "--cutoff", "40"),
        ("verify-operators", "--alphabet", "3", "--cutoff", "1000000000"),
        ("verify-operators", "--cutoff", "40", "--dump-matrix", str(infile)),
    ):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("bad configuration:")
        assert "Traceback" not in captured.err


def test_dump_matrix(tmp_path, capsys):
    series = Series(A2, {A2.generator(0): 1.0})
    infile = tmp_path / "series.json"
    outfile = tmp_path / "matrix.csv"
    infile.write_text(json.dumps(series.to_json_dict()))
    code, _ = run(
        capsys,
        "verify-operators",
        "--cutoff", "1",
        "--dump-matrix", str(infile),
        "--out", str(outfile),
    )
    assert code == 0
    lines = outfile.read_text().strip().splitlines()
    assert lines[0] == "row,col,re,im"
    assert "z0,e,1.0,0.0" in lines


def test_report_written_to_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out = run(capsys, "verify-words", "--max-len", "3", "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["suite"] == "words"
    # stdout carries one status line per check
    assert len(out.strip().splitlines()) == len(report["checks"])


def test_bad_seed_and_tolerance_are_bad_configurations(tmp_path, capsys):
    # a negative seed crashed numpy's generator; a NaN tolerance switched off
    # the Lanczos stop test
    infile = tmp_path / "series.json"
    infile.write_text(json.dumps(Series.unit(A2).to_json_dict()))
    for argv in (
        ("verify-operators", "--seed", "-5"),
        ("verify-words", "--seed", "-1"),
        ("verify-operators", "--tol", "nan"),
        ("report-all", "--tol", "inf"),
        ("verify-operators", "--dump-matrix", str(infile), "--seed", "-1"),
    ):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.err.startswith("bad configuration:")
        assert "Traceback" not in captured.err


def test_non_finite_coefficients_are_bad_input(tmp_path, capsys):
    infile = tmp_path / "input.json"
    for value in (math.nan, math.inf, -math.inf):
        series = {"alphabet": 2, "terms": [{"word": "z0z1", "re": value, "im": 0.0}]}
        cochain = {
            "arity": 2,
            "alphabet": 2,
            "terms": [{"words": ["z0", "z1"], "re": 1.0, "im": value}],
        }
        for argv, data, message in (
            (("solve-derivation", "--in"), {"alphabet": 2, "values": {"0": series}}, "derivation"),
            (("trivialize-cocycle", "--in"), cochain, "cochain"),
            (("verify-operators", "--dump-matrix"), series, "series"),
        ):
            infile.write_text(json.dumps(data))
            code = main([*argv, str(infile)])
            captured = capsys.readouterr()
            assert code == 2, (argv, value)
            assert captured.err.startswith(f"bad {message} input:")
            assert captured.out == ""


#: Coefficient parts that are not JSON numbers, and an integer past float range.
NOT_FLOAT_NUMBERS = {
    "string": '"re": "3"',
    "boolean": '"re": true',
    "string_im": '"re": 1, "im": "0"',
    "boolean_im": '"re": 1, "im": false',
    "huge_integer": '"re": 1' + "0" * 400,
}


@pytest.mark.parametrize("part", list(NOT_FLOAT_NUMBERS.values()), ids=list(NOT_FLOAT_NUMBERS))
def test_coefficients_that_are_not_json_numbers_are_bad_input(tmp_path, capsys, part):
    series = '{"alphabet": 2, "terms": [{"word": "z0z1", %s}]}' % part
    inputs = (
        ("solve-derivation", "derivation", '{"alphabet": 2, "values": {"0": %s}}' % series),
        (
            "trivialize-cocycle",
            "cochain",
            '{"arity": 2, "alphabet": 2, "terms": [{"words": ["z0", "z1"], %s}]}' % part,
        ),
    )
    infile = tmp_path / "input.json"
    for command, what, text in inputs:
        infile.write_text(text)
        code = main([command, "--in", str(infile)])
        captured = capsys.readouterr()
        assert code == 2, (command, part)
        assert captured.err.startswith(f"bad {what} input:")
        assert captured.out == ""


def test_integer_coefficients_are_json_numbers(tmp_path, capsys):
    infile = tmp_path / "input.json"
    infile.write_text('{"arity": 2, "alphabet": 2, "terms": [{"words": ["z0", "z1"], "re": 3}]}')
    code, out = run(capsys, "trivialize-cocycle", "--in", str(infile))
    assert code == 0
    assert json.loads(out)["cochain"]["terms"] == [{"words": ["z0z1"], "re": -3.0, "im": 0.0}]


def full_scan_power_shift(params):
    """The power-shift sweep over every v with |v| == |u|, in the sweep's order."""
    alphabet = Alphabet(params["m"])
    bases = [w for w in enumerate_words(alphabet, params["w_max"]) if not w.is_unit()]
    candidates = enumerate_words(alphabet, params["u_max"])
    for w in bases:
        for u in candidates:
            k_min = math.ceil(len(u) / len(w)) + 1
            for k in (k_min, k_min + 1):
                for v in candidates:
                    if len(v) == len(u) and not checks.power_shift_check(w, u, v, k):
                        return {"w": str(w), "u": str(u), "v": str(v), "k": k}
    return None


SWEEP_PARAMS = (
    {"m": 1, "w_max": 3, "u_max": 5, "seed": 1},
    {"m": 2, "w_max": 2, "u_max": 3, "seed": 2},
    {"m": 3, "w_max": 2, "u_max": 2, "seed": 3},
)


def relabeling_class(*words):
    """The letters of ``words`` renamed by first occurrence, and the words'
    lengths: equal for two word tuples exactly when a permutation of the
    generators maps one to the other."""
    names = {}
    letters = tuple(names.setdefault(a, len(names)) for w in words for a in w.letters)
    return letters, tuple(len(w) for w in words)


@pytest.mark.parametrize("params", SWEEP_PARAMS)
def test_power_shift_sweep_matches_full_scan(params):
    sweep = checks.CHECKS["words.power_shift_sweep"].run
    assert sweep(params) is None
    assert full_scan_power_shift(params) is None


@pytest.mark.parametrize(
    "params, failing",
    [
        (SWEEP_PARAMS[0], ("z0", "z0z0", "z0z0", 3)),
        (SWEEP_PARAMS[1], ("z0z1", "z0z1", "z0z1", 3)),
        (SWEEP_PARAMS[2], ("z0z2", "z0z2", "z0z2", 3)),
    ],
)
def test_power_shift_sweep_reports_the_full_scan_counterexample(monkeypatch, params, failing):
    alphabet = Alphabet(params["m"])
    w0, u0, v0 = (alphabet.parse(text) for text in failing[:3])
    k0 = failing[3]
    # the planted failure meets the hypothesis, so it is no vacuous instance
    assert v0 * w0**k0 == w0**k0 * u0
    real = checks.power_shift_check
    orbit = relabeling_class(w0, u0, v0)

    # the sweep tests one member of each relabeling class, so the failure is
    # planted on the whole class of the instance
    def planted(w, u, v, k):
        return (k != k0 or relabeling_class(w, u, v) != orbit) and real(w, u, v, k)

    monkeypatch.setattr(checks, "power_shift_check", planted)
    sweep = checks.CHECKS["words.power_shift_sweep"].run
    for found in (full_scan_power_shift(params), sweep(params)):
        assert found["k"] == k0
        assert relabeling_class(*(alphabet.parse(found[key]) for key in "wuv")) == orbit


def test_crashing_check_is_a_failed_check(monkeypatch, capsys):
    def crash(params):
        raise ZeroDivisionError("planted")

    plant(monkeypatch, "words.concat_laws", crash)
    code = main(["verify-words", "--max-len", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    results = {check["name"]: check for check in json.loads(captured.out)["checks"]}
    crashed = results.pop("words.concat_laws")
    assert crashed["passed"] is False
    assert crashed["counterexample"] == {"exception": "ZeroDivisionError: planted"}
    # the params stay, so the failure replays
    assert crashed["params"] == {"m": 2, "len": 2, "seed": 46}
    assert all(check["passed"] for check in results.values())


def test_words_suite_runs_at_any_alphabet(capsys):
    # the operator budget accepts report-all --alphabet 12 --cutoff 3
    checks._check_operator_config(RunConfig(alphabet=12, cutoff=3))
    # no word sweep grows with the alphabet, so the words suite has no budget
    for m in ("150", "1000000"):
        start = time.process_time()
        code = main(["verify-words", "--alphabet", m])
        elapsed = time.process_time() - start
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["passed"] and all(check["passed"] for check in report["checks"])
        assert elapsed < 1.0


def test_words_suite_budget_accepts_eight_generators_at_the_defaults(capsys):
    # the words suite has no budget left to refuse it: eight generators run
    # at the defaults and at any max length
    for extra in ([], *(["--max-len", str(n)] for n in (0, 1, 6, 100))):
        code = main(["verify-words", "--alphabet", "8", *extra])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["passed"] and all(check["passed"] for check in report["checks"])


def test_word_sweeps_make_the_same_calls_at_twelve_and_a_million_letters(monkeypatch):
    # the sweeps' tuples use at most 8 letters and cancellation's set test at
    # most 9, so from 9 letters on the alphabet only relabels them; the
    # trial-based word checks draw their words and are left out
    calls = Counter()

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(Word, "__mul__", counted("mul", Word.__mul__))
    monkeypatch.setattr(Word, "commutes_with", counted("commutes", Word.commutes_with))
    monkeypatch.setattr(
        checks, "power_shift_check", counted("power_shift", checks.power_shift_check)
    )
    sweeps = ("concat_laws", "cancellation", "power_shift_sweep", "primitive_root_commutation")
    seen = []
    for m in (12, 10**6):
        calls.clear()
        for name in sweeps:
            check = checks.CHECKS[f"words.{name}"]
            assert check.run(check.params(RunConfig(alphabet=m))) is None
        seen.append(dict(calls))
    assert seen[0] == seen[1]
    assert set(seen[0]) == {"mul", "commutes", "power_shift"}


def test_relabeled_checks_make_the_same_calls_at_twelve_and_forty_letters(monkeypatch):
    # the commutant tests 9 pairs at pair_max 2 from two letters on; the
    # derivation checks probe one word per class under the permutations that
    # fix the symbol's letters, spelled in them and up to 3 others, so with
    # the same symbols the probes are the same.  The symbols are drawn from
    # the alphabet, so here they are drawn over the first 8 letters at both
    # sizes, which leaves 3 others at 12 letters
    calls = Counter()

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    real_series = checks._random_series

    def drawn_over_eight_letters(rng, alphabet, *args, **kwargs):
        terms = real_series(rng, Alphabet(8), *args, **kwargs).iter_terms()
        return Series._from_valid(alphabet, [(Word._of(alphabet, w.letters), c) for w, c in terms])

    monkeypatch.setattr(checks, "_random_series", drawn_over_eight_letters)
    monkeypatch.setattr(checks, "commutant_check", counted("commutant", checks.commutant_check))
    monkeypatch.setattr(
        GeneratorDerivation, "of_word", counted("of_word", GeneratorDerivation.of_word)
    )
    seen = []
    for m in (12, 40):
        calls.clear()
        for name in ("operators.commutant", "derivations.screens", "derivations.stabilization"):
            check = checks.CHECKS[name]
            assert check.run(check.params(RunConfig(alphabet=m, cutoff=2))) is None
        seen.append(dict(calls))
    assert seen[0] == seen[1]
    assert seen[0]["commutant"] == 9
    # with 8 letters in the symbol, at most 848 probes of length <= 3 (against
    # 65,640 words at 40 letters) and 91 of length <= 2, each read once in
    # each of the 10 trials
    assert 0 < seen[0]["of_word"] <= 10 * (848 + 91)


def test_report_all_runs_at_forty_four_letters(capsys):
    # the largest alphabet whose norm checks' basis at cutoff 2 fits
    # MAX_NORM_WORDS (1,981 words); the derivations suite runs with the others
    start = time.process_time()
    code = main(["report-all", "--alphabet", "44", "--cutoff", "2"])
    elapsed = time.process_time() - start
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    suites = {rep["suite"]: rep for rep in report["reports"]}
    assert set(suites) == {"cohomology", "derivations", "operators", "words"}
    assert all(check["passed"] for rep in suites.values() for check in rep["checks"])
    assert elapsed < 10.0


def test_h1_dimension_past_the_cocycle_bound_is_refused_before_allocation(tmp_path, capsys):
    # at two letters, length 21 gives 4,194,303 words: under the norm path's
    # MAX_DIMENSION, but about 10 GB of cochain rows
    params = {"max_m": 3, "max_len": 21, "seed": 44}
    payload = {"check": "cohomology.h1_dimension", "params": params}
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    tracemalloc.start()
    try:
        code = main(["report-all", "--replay", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("bad replay payload:")
    assert "over 65536" in captured.err
    assert peak < 2**20


def test_operator_suite_over_the_norm_word_budget_is_refused_before_allocation(capsys):
    # 2,625,641 words pass the basis budget, but the norm checks' basis at
    # cutoff 4 is over 2048 words: the suite is refused before any basis is built
    for argv in (
        ("verify-operators", "--alphabet", "40", "--cutoff", "4"),
        ("report-all", "--alphabet", "40", "--cutoff", "4"),
    ):
        tracemalloc.start()
        try:
            code = main(list(argv))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("bad configuration:")
        assert "Traceback" not in captured.err
        assert peak < 2**20


def test_operator_suite_size_is_predicted_at_the_norm_cutoff():
    # the basis at min(cutoff, 4) may hold 2048 words: 1555, 1885 and 1981
    # words are accepted, 2801, 2380 and 2071 refused
    for m, cutoff in ((6, 4), (12, 3), (44, 2)):
        checks._check_operator_config(RunConfig(alphabet=m, cutoff=cutoff))
    for m, cutoff in ((7, 4), (13, 3), (45, 2)):
        with pytest.raises(ValueError, match="over 2048"):
            checks._check_operator_config(RunConfig(alphabet=m, cutoff=cutoff))
    # past the norm cutoff the basis is counted at it (1555 words), below it
    # the basis shrinks with the cutoff (400 words)
    checks._check_operator_config(RunConfig(alphabet=6, cutoff=8))
    checks._check_operator_config(RunConfig(alphabet=7, cutoff=3))


def test_checks_load_no_numpy_random():
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    program = (
        "import contextlib, io, sys\n"
        "from ncdisc import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['report-all', '--alphabet', '3'])\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0", "False"]


def test_checks_load_neither_the_cli_nor_argparse():
    # the dependency runs one way: the command line imports the checks
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    program = (
        "import sys\n"
        "import ncdisc.checks\n"
        "print('ncdisc.cli' in sys.modules, 'argparse' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "False"]


@pytest.mark.parametrize("m", [2, 3])
def test_random_operator_fills_each_column_once_per_row_length(m):
    basis = TruncationBasis(Alphabet(m), 4)
    op = checks._random_operator(basis, 5)
    again = checks._random_operator(basis, 5)
    for field in ("rows", "cols", "vals"):
        assert np.array_equal(getattr(op, field), getattr(again, field))
    assert not np.array_equal(op.vals, checks._random_operator(basis, 6).vals)
    # one entry per (column, row length), so every band of every column is filled
    filled = Counter(zip(op.cols.tolist(), basis.lengths[op.rows].tolist()))
    assert set(filled.values()) == {1}
    assert set(filled) == {(col, n) for col in range(basis.dimension) for n in range(5)}
    assert set(op.band_lengths().tolist()) == set(range(-4, 5))
    assert all(
        c and c.real == int(c.real) and c.imag == int(c.imag) and max(abs(c.real), abs(c.imag)) <= 3
        for c in op.vals.tolist()
    )


def stdlib_operator(basis, seed):
    """The random operator spelled with the stdlib calls it must match."""
    rng = random.Random(seed)
    offsets = basis.offsets().tolist()
    rows, vals = [], []
    for _ in range(basis.dimension):
        for start, end in zip(offsets, offsets[1:]):
            rows.append(start + rng.randrange(end - start))
            value = complex(rng.randint(-3, 3), rng.randint(-3, 3))
            while not value:
                value = complex(rng.randint(-3, 3), rng.randint(-3, 3))
            vals.append(value)
    cols = np.repeat(np.arange(basis.dimension), len(offsets) - 1)
    return TruncatedOperator._from_coo(basis, rows, cols, vals)


@pytest.mark.parametrize("seed", [0, 1, 42, 7919])
@pytest.mark.parametrize("cutoff", [2, 3, 4])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_random_operator_matches_the_stdlib_calls(m, cutoff, seed):
    basis = TruncationBasis(Alphabet(m), cutoff)
    op = checks._random_operator(basis, seed)
    expected = stdlib_operator(basis, seed)
    assert np.array_equal(op.rows, expected.rows)
    assert np.array_equal(op.vals, expected.vals)


def below_operator(basis, seed):
    """The random operator spelled with the checks' own ``_below`` and
    ``_random_coefficient``, which its inline draws must match."""
    getrandbits = random.Random(seed).getrandbits
    offsets = basis.offsets().tolist()
    rows, vals = [], []
    for _ in range(basis.dimension):
        for start, end in zip(offsets, offsets[1:]):
            rows.append(start + checks._below(getrandbits, end - start))
            value = checks._random_coefficient(getrandbits)
            while not value:
                value = checks._random_coefficient(getrandbits)
            vals.append(value)
    cols = np.repeat(np.arange(basis.dimension), len(offsets) - 1)
    return TruncatedOperator._from_coo(basis, rows, cols, vals)


# the operator suite's bases at --alphabet 2 and 3 (cutoffs 3 and 5), and blocks
# of sizes that are and are not powers of two
@pytest.mark.parametrize("m, cutoff", [(1, 6), (2, 3), (2, 5), (3, 3), (3, 5), (5, 2)])
@pytest.mark.parametrize("seed", [0, 1, 7919])
def test_random_operator_matches_the_below_reference(m, cutoff, seed):
    basis = TruncationBasis(Alphabet(m), cutoff)
    op = checks._random_operator(basis, seed)
    expected = below_operator(basis, seed)
    for field in ("rows", "cols", "vals"):
        assert getattr(op, field).tobytes() == getattr(expected, field).tobytes()


def test_report_all_matches_its_golden_file(capsys):
    # the report of ``report-all --alphabet 2 --seed 1`` with elapsed_s zeroed
    code, out = run(capsys, "report-all", "--alphabet", "2", "--seed", "1")
    assert code == 0
    report = scrub_timings(json.loads(out))
    golden = Path(__file__).parent / "data" / "report_all.json"
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == golden.read_text()


def test_report_bytes_do_not_depend_on_the_output_path(tmp_path, capsys):
    (tmp_path / "sub").mkdir()
    written = []
    for path in (tmp_path / "a.json", tmp_path / "sub" / "b.json"):
        code, _ = run(capsys, "report-all", "--out", str(path))
        assert code == 0
        report = scrub_timings(json.loads(path.read_text()))
        written.append(json.dumps(report, indent=2, sort_keys=True))
    assert written[0] == written[1]


@pytest.mark.parametrize("name", list(checks.CHECKS))
def test_every_check_replays_from_the_golden_report(tmp_path, capsys, name):
    golden = json.loads((Path(__file__).parent / "data" / "report_all.json").read_text())
    (entry,) = [
        check for report in golden["reports"] for check in report["checks"] if check["name"] == name
    ]
    path = tmp_path / "payload.json"
    path.write_text(json.dumps({"check": name, "params": entry["params"]}))
    code, out = run(capsys, "report-all", "--replay", str(path))
    assert code == 0
    assert '"passed": true' in out and '"counterexample": null' in out
    assert json.loads(out) == {"check": name, "passed": True, "counterexample": None}


def test_replaying_a_crashing_check_reports_the_failed_check(tmp_path, monkeypatch, capsys):
    def crash(params):
        raise ZeroDivisionError("planted")

    plant(monkeypatch, "words.concat_laws", crash)
    assert main(["verify-words", "--max-len", "2"]) == 1
    results = {check["name"]: check for check in json.loads(capsys.readouterr().out)["checks"]}
    crashed = results["words.concat_laws"]
    path = tmp_path / "payload.json"
    path.write_text(json.dumps({"check": crashed["name"], "params": crashed["params"]}))

    code = main(["verify-words", "--replay", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    replayed = json.loads(captured.out)
    assert replayed == {
        "check": "words.concat_laws",
        "passed": False,
        "counterexample": crashed["counterexample"],
    }


def test_replaying_a_non_converging_check_reports_the_failed_check(tmp_path, monkeypatch, capsys):
    def stall(params):
        raise cli.PowerIterationError("no convergence in 3 steps")

    plant(monkeypatch, "operators.commutant", stall)
    path = tmp_path / "payload.json"
    path.write_text(json.dumps({"check": "operators.commutant", "params": {}}))
    code = main(["verify-operators", "--replay", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["counterexample"] == {
        "non_convergence": "no convergence in 3 steps"
    }


def _assert_unwritable(capsys, code):
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("cannot write output:")
    assert "Traceback" not in captured.err
    return captured


@pytest.mark.parametrize("command", ["verify-words", "report-all"])
def test_unwritable_report_out_is_exit_2(tmp_path, capsys, command):
    out_path = tmp_path / "missing" / "x.json"
    code = main([command, "--max-len", "2", "--cutoff", "2", "--out", str(out_path)])
    _assert_unwritable(capsys, code)
    assert not out_path.parent.exists()


def test_unwritable_dump_matrix_out_is_exit_2(tmp_path, capsys):
    infile = tmp_path / "series.json"
    infile.write_text(json.dumps(Series.basis(A2.generator(0)).to_json_dict()))
    out_path = tmp_path / "missing" / "x.json"
    code = main(
        ["verify-operators", "--dump-matrix", str(infile), "--cutoff", "2", "--out", str(out_path)]
    )
    captured = _assert_unwritable(capsys, code)
    assert captured.out == ""


def test_unwritable_solve_derivation_out_is_exit_2(tmp_path, capsys):
    derivation = GeneratorDerivation.inner(Series(A2, {A2.word([0, 1]): 2.0}))
    infile = tmp_path / "derivation.json"
    infile.write_text(json.dumps(derivation.to_json_dict()))
    out_path = tmp_path / "missing" / "x.json"
    code = main(["solve-derivation", "--in", str(infile), "--out", str(out_path)])
    captured = _assert_unwritable(capsys, code)
    assert captured.out == ""


def test_unwritable_trivialize_cocycle_out_is_exit_2(tmp_path, capsys):
    cocycle = coboundary(Cochain(2, A2, {(A2.generator(0), A2.word([1, 0])): 1.5}))
    infile = tmp_path / "cocycle.json"
    infile.write_text(json.dumps(cocycle.to_json_dict()))
    out_path = tmp_path / "missing" / "x.json"
    code = main(["trivialize-cocycle", "--in", str(infile), "--out", str(out_path)])
    captured = _assert_unwritable(capsys, code)
    assert captured.out == ""


# -- one parser per process -------------------------------------------------------


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_verify_commands_and_public_names_match_their_registries():
    (commands,) = (
        action.choices
        for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    verify = {name for name in commands if name.startswith("verify-")}
    assert verify == {f"verify-{name.partition('.')[0]}" for name in checks.CHECKS}
    missing = [name for name in ncdisc.__all__ if not hasattr(ncdisc, name)]
    assert missing == []
    assert len(set(ncdisc.__all__)) == len(ncdisc.__all__)


def test_repeated_calls_do_not_share_options(tmp_path, capsys):
    cocycle = coboundary(Cochain(2, A2, {(A2.generator(0), A2.word([1, 0])): 1.5}))
    infile = tmp_path / "cocycle.json"
    infile.write_text(json.dumps(cocycle.to_json_dict()))
    out_path = tmp_path / "psi.json"
    code, with_out = run(capsys, "trivialize-cocycle", "--in", str(infile), "--out", str(out_path))
    assert code == 0
    written = out_path.read_text()
    out_path.unlink()
    code, without_out = run(capsys, "trivialize-cocycle", "--in", str(infile))
    assert code == 0
    assert not out_path.exists()
    payload = json.loads(without_out)
    assert payload["report"] == json.loads(with_out)
    assert payload["cochain"] == json.loads(written)


def test_a_rebound_handler_is_called_after_the_parser_is_built(tmp_path, monkeypatch, capsys):
    cocycle = coboundary(Cochain(2, A2, {(A2.generator(0), A2.word([1, 0])): 1.5}))
    infile = tmp_path / "cocycle.json"
    infile.write_text(json.dumps(cocycle.to_json_dict()))
    assert run(capsys, "trivialize-cocycle", "--in", str(infile))[0] == 0
    seen = []

    def handler(args):
        seen.append(args.infile)
        return 7

    monkeypatch.setattr(cli, "_cmd_trivialize_cocycle", handler)
    assert main(["trivialize-cocycle", "--in", str(infile)]) == 7
    assert seen == [str(infile)]


@pytest.mark.parametrize("text", ["z01", "z00", "z0z01"])
def test_solve_derivation_refuses_a_non_canonical_word(tmp_path, capsys, text):
    data = {
        "alphabet": 2,
        "values": {"0": {"alphabet": 2, "terms": [{"word": text, "re": 1.0, "im": 0.0}]}},
    }
    infile = tmp_path / "derivation.json"
    infile.write_text(json.dumps(data))
    code = main(["solve-derivation", "--in", str(infile)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("bad derivation input:")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "command, what, data",
    [
        ("solve-derivation", "derivation", {"alphabet": 2.9, "values": {}}),
        ("solve-derivation", "derivation", {"alphabet": "2", "values": {}}),
        (
            "solve-derivation",
            "derivation",
            {"alphabet": 2, "values": {"0": {"alphabet": 2.0, "terms": []}}},
        ),
        ("trivialize-cocycle", "cochain", {"arity": 2, "alphabet": 2.9, "terms": []}),
        ("trivialize-cocycle", "cochain", {"arity": 2.7, "alphabet": 2, "terms": []}),
        ("trivialize-cocycle", "cochain", {"arity": "2", "alphabet": 2, "terms": []}),
        # a string is not a list of word texts, even when each letter parses
        (
            "trivialize-cocycle",
            "cochain",
            {"arity": 2, "alphabet": 2, "terms": [{"words": "ee", "re": 1.0, "im": 0.0}]},
        ),
    ],
)
def test_solvers_refuse_non_integer_sizes_and_string_keys(tmp_path, capsys, command, what, data):
    infile = tmp_path / "input.json"
    infile.write_text(json.dumps(data))
    code = main([command, "--in", str(infile)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"bad {what} input:")
    assert captured.out == ""


# -- the suite parameter table --------------------------------------------------

DEFAULT_PARAMS = [
    (
        "cohomology",
        "cohomology.coboundary_squared",
        {"m": 2, "max_len": 2, "seed": 42, "trials": 10},
    ),
    (
        "cohomology",
        "cohomology.homotopy_roundtrip",
        {"m": 2, "max_len": 3, "seed": 43, "trials": 10},
    ),
    ("cohomology", "cohomology.h1_dimension", {"max_len": 3, "max_m": 3, "seed": 44}),
    (
        "derivations",
        "derivations.inner_roundtrip",
        {"deg": 3, "seed": 42, "sizes": [2, 3], "trials": 25},
    ),
    ("derivations", "derivations.screens", {"deg": 3, "m": 2, "seed": 43, "trials": 10}),
    ("derivations", "derivations.stabilization", {"deg": 3, "m": 2, "seed": 44, "trials": 10}),
    ("derivations", "derivations.normal_approx", {"deg": 4, "m": 2, "seed": 45, "trials": 50}),
    ("operators", "operators.isometry_relations", {"cutoff": 5, "m": 2}),
    ("operators", "operators.commutant", {"cutoff": 5, "m": 2, "pair_max": 3, "seed": 48}),
    (
        "operators",
        "operators.band_projections",
        {"cutoff": 4, "m": 2, "seed": 42, "tol": 1e-09, "trials": 3},
    ),
    (
        "operators",
        "operators.compression_product",
        {"cutoff": 5, "deg": 2, "m": 2, "seed": 43, "trials": 50},
    ),
    (
        "operators",
        "operators.cesaro_contraction",
        {"cutoff": 4, "m": 2, "seed": 44, "tol": 1e-09, "trials": 20},
    ),
    ("operators", "operators.cesaro_vector_bound", {"cutoff": 5, "m": 2, "seed": 45, "trials": 50}),
    (
        "operators",
        "operators.conjugation",
        {"cutoff": 5, "deg": 3, "m": 2, "seed": 46, "trials": 25, "w_max": 1},
    ),
    (
        "operators",
        "operators.filter_norm_bound",
        {"cutoff": 4, "m": 2, "seed": 47, "tol": 1e-09, "trials": 25},
    ),
    ("operators", "operators.mobius_witness", {"c": 0.9, "cutoff": 120, "lo": 1.8, "tol": 1e-09}),
    ("words", "words.concat_laws", {"len": 2, "m": 2, "seed": 46}),
    ("words", "words.cancellation", {"len": 5, "m": 2, "seed": 47}),
    ("words", "words.order_invariance", {"m": 2, "max_len": 6, "seed": 42, "trials": 10000}),
    ("words", "words.division_roundtrip", {"m": 2, "max_len": 6, "seed": 43, "trials": 10000}),
    (
        "words",
        "words.min_staged_vs_scan",
        {"m": 2, "max_len": 6, "seed": 44, "set_size": 100, "sets": 100},
    ),
    ("words", "words.power_shift_sweep", {"m": 2, "seed": 48, "u_max": 4, "w_max": 3}),
    ("words", "words.primitive_root_commutation", {"m": 2, "max_len": 6, "seed": 49}),
    ("words", "words.transport_roundtrip", {"m": 2, "max_len": 6, "seed": 45, "trials": 1000}),
]

# --alphabet 3 --cutoff 2 --max-len 2: the min() clamps bind, and the
# conjugation check's series has degree 0
CLAMPED_PARAMS = [
    (
        "cohomology",
        "cohomology.coboundary_squared",
        {"m": 3, "max_len": 2, "seed": 42, "trials": 10},
    ),
    (
        "cohomology",
        "cohomology.homotopy_roundtrip",
        {"m": 3, "max_len": 3, "seed": 43, "trials": 10},
    ),
    ("cohomology", "cohomology.h1_dimension", {"max_len": 3, "max_m": 3, "seed": 44}),
    (
        "derivations",
        "derivations.inner_roundtrip",
        {"deg": 3, "seed": 42, "sizes": [2, 3], "trials": 25},
    ),
    ("derivations", "derivations.screens", {"deg": 3, "m": 3, "seed": 43, "trials": 10}),
    ("derivations", "derivations.stabilization", {"deg": 3, "m": 3, "seed": 44, "trials": 10}),
    ("derivations", "derivations.normal_approx", {"deg": 4, "m": 3, "seed": 45, "trials": 50}),
    ("operators", "operators.isometry_relations", {"cutoff": 2, "m": 3}),
    ("operators", "operators.commutant", {"cutoff": 2, "m": 3, "pair_max": 2, "seed": 48}),
    (
        "operators",
        "operators.band_projections",
        {"cutoff": 2, "m": 3, "seed": 42, "tol": 1e-09, "trials": 3},
    ),
    (
        "operators",
        "operators.compression_product",
        {"cutoff": 2, "deg": 2, "m": 3, "seed": 43, "trials": 50},
    ),
    (
        "operators",
        "operators.cesaro_contraction",
        {"cutoff": 2, "m": 3, "seed": 44, "tol": 1e-09, "trials": 20},
    ),
    ("operators", "operators.cesaro_vector_bound", {"cutoff": 2, "m": 3, "seed": 45, "trials": 50}),
    (
        "operators",
        "operators.conjugation",
        {"cutoff": 2, "deg": 0, "m": 3, "seed": 46, "trials": 25, "w_max": 1},
    ),
    (
        "operators",
        "operators.filter_norm_bound",
        {"cutoff": 2, "m": 3, "seed": 47, "tol": 1e-09, "trials": 25},
    ),
    ("operators", "operators.mobius_witness", {"c": 0.9, "cutoff": 120, "lo": 1.8, "tol": 1e-09}),
    ("words", "words.concat_laws", {"len": 2, "m": 3, "seed": 46}),
    ("words", "words.cancellation", {"len": 2, "m": 3, "seed": 47}),
    ("words", "words.order_invariance", {"m": 3, "max_len": 2, "seed": 42, "trials": 10000}),
    ("words", "words.division_roundtrip", {"m": 3, "max_len": 2, "seed": 43, "trials": 10000}),
    (
        "words",
        "words.min_staged_vs_scan",
        {"m": 3, "max_len": 2, "seed": 44, "set_size": 100, "sets": 100},
    ),
    ("words", "words.power_shift_sweep", {"m": 3, "seed": 48, "u_max": 4, "w_max": 3}),
    ("words", "words.primitive_root_commutation", {"m": 3, "max_len": 2, "seed": 49}),
    ("words", "words.transport_roundtrip", {"m": 3, "max_len": 2, "seed": 45, "trials": 1000}),
]


@pytest.mark.parametrize(
    "argv, expected",
    [
        ((), DEFAULT_PARAMS),
        (("--alphabet", "3", "--cutoff", "2", "--max-len", "2"), CLAMPED_PARAMS),
    ],
)
def test_report_all_runs_the_pinned_parameter_table(monkeypatch, capsys, argv, expected):
    # the checks are stubbed out: only the parameters each one is given count
    for name in checks.CHECKS:
        plant(monkeypatch, name, lambda params: None)
    code, out = run(capsys, "report-all", *argv)
    assert code == 0
    ran = [
        (report["suite"], check["name"], check["params"])
        for report in json.loads(out)["reports"]
        for check in report["checks"]
    ]
    assert ran == expected


# -- the seeded draws -----------------------------------------------------------


def stdlib_word(rng, alphabet, max_len, min_len=0):
    """The word draw spelled with the stdlib calls it must match."""
    n = rng.randint(min_len, max_len)
    return alphabet.word(rng.randrange(alphabet.size) for _ in range(n))


def stdlib_series(rng, alphabet, max_len, max_terms=5, min_len=0):
    terms = [
        (
            stdlib_word(rng, alphabet, max_len, min_len),
            complex(rng.randint(-3, 3), rng.randint(-3, 3)),
        )
        for _ in range(rng.randint(1, max_terms))
    ]
    return Series._from_valid(alphabet, terms)


BOUNDS = [(0, 0), (3, 3), (1, 6), (0, 1), (0, 4), (2, 9)]


@pytest.mark.parametrize("m", range(1, 8))
@pytest.mark.parametrize("seed", [0, 1, 42, 7919])
def test_word_draws_match_the_stdlib_calls(m, seed):
    alphabet = Alphabet(m)
    ours, theirs = random.Random(seed), random.Random(seed)
    for min_len, max_len in BOUNDS * 20:
        word = checks._random_word(ours, alphabet, max_len, min_len)
        expected = stdlib_word(theirs, alphabet, max_len, min_len)
        assert word.alphabet is alphabet
        assert word.letters == expected.letters
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("count", [0, 1, 3, 100])
@pytest.mark.parametrize("m", range(1, 8))
@pytest.mark.parametrize("seed", [0, 1, 42, 7919])
def test_word_batches_match_the_stdlib_calls(m, seed, count):
    alphabet = Alphabet(m)
    ours, theirs = random.Random(seed), random.Random(seed)
    for min_len, max_len in BOUNDS * 20:
        words = checks._random_words(ours, alphabet, max_len, count, min_len)
        expected = [stdlib_word(theirs, alphabet, max_len, min_len) for _ in range(count)]
        assert all(word.alphabet is alphabet for word in words)
        assert [word.letters for word in words] == [word.letters for word in expected]
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("m", range(1, 8))
@pytest.mark.parametrize("seed", [0, 1, 42, 7919])
def test_series_draws_match_the_stdlib_calls(m, seed):
    alphabet = Alphabet(m)
    ours, theirs = random.Random(seed), random.Random(seed)
    for min_len, max_len in BOUNDS * 5:
        for max_terms in (1, 4, 5):
            series = checks._random_series(ours, alphabet, max_len, max_terms, min_len)
            assert series == stdlib_series(theirs, alphabet, max_len, max_terms, min_len)
            assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("m", [1, 2, 3, 7])
@pytest.mark.parametrize("seed", [0, 1, 42, 7919])
def test_a_word_stream_draws_lazily_on_the_shared_generator(m, seed):
    # each word is drawn when it is taken, so draws of other kinds may come between
    alphabet = Alphabet(m)
    ours, theirs = random.Random(seed), random.Random(seed)
    for min_len, max_len in BOUNDS:
        stream = checks._word_stream(ours, alphabet, max_len, min_len)
        assert ours.getstate() == theirs.getstate()
        for _ in range(5):
            word = next(stream)
            expected = stdlib_word(theirs, alphabet, max_len, min_len)
            assert word.alphabet is alphabet
            assert word.letters == expected.letters
            assert ours.getstate() == theirs.getstate()
            assert ours.randrange(10) == theirs.randrange(10)


BAD_BOUNDS = [(0, -1), (4, 3), (0, 2.5), (0, 2.0), (0, "3"), (0.5, 3)]


@pytest.mark.parametrize("min_len, max_len", BAD_BOUNDS)
def test_word_draw_refuses_bad_bounds_before_drawing(min_len, max_len):
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(ValueError):
        checks._random_word(rng, A2, max_len, min_len)
    assert rng.getstate() == state


@pytest.mark.parametrize("min_len, max_len", BAD_BOUNDS)
def test_word_stream_refuses_bad_bounds_before_its_first_draw(min_len, max_len):
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(ValueError):
        checks._word_stream(rng, A2, max_len, min_len)
    assert rng.getstate() == state


@pytest.mark.parametrize("count", [0, 1, 3])
@pytest.mark.parametrize("min_len, max_len", BAD_BOUNDS)
def test_word_batch_refuses_bad_bounds_before_drawing(min_len, max_len, count):
    # also at count 0, which draws nothing: an empty range would redraw for ever
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(ValueError):
        checks._random_words(rng, A2, max_len, count, min_len)
    assert rng.getstate() == state


@pytest.mark.parametrize("max_len", [-1, 2.5, "3"])
def test_replay_with_bad_word_length_bounds_is_exit_2(tmp_path, capsys, max_len):
    payload = {
        "check": "words.order_invariance",
        "params": {"m": 2, "max_len": max_len, "seed": 1, "trials": 10},
    }
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    code = main(["verify-words", "--replay", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("bad replay payload:")
    assert "Traceback" not in captured.err


ZERO_SERIES = {"alphabet": 2, "terms": []}
COMMUTATOR = {
    "alphabet": 2,
    "terms": [
        {"word": "z0z1", "re": 1.0, "im": 0.0},
        {"word": "z1z0", "re": -1.0, "im": 0.0},
    ],
}


@pytest.mark.parametrize(
    "values",
    [
        # "00" used to name generator 0 too and silently replace its value
        {"0": COMMUTATOR, "00": ZERO_SERIES, "1": ZERO_SERIES},
        {"+0": COMMUTATOR, "1": ZERO_SERIES},
        {" 0": COMMUTATOR},
        {"0 ": COMMUTATOR},
        {"01": COMMUTATOR},
        {"-1": ZERO_SERIES},
        {"": ZERO_SERIES},
    ],
)
def test_solve_derivation_refuses_a_non_canonical_generator_key(tmp_path, capsys, values):
    infile = tmp_path / "derivation.json"
    infile.write_text(json.dumps({"alphabet": 2, "values": values}))
    code = main(["solve-derivation", "--in", str(infile)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("bad derivation input:")
    assert captured.out == ""


def test_solve_derivation_refuses_a_generator_outside_the_alphabet(tmp_path, capsys):
    # the generator keys are bounded by the one letter rule, with its message
    infile = tmp_path / "derivation.json"
    infile.write_text(json.dumps({"alphabet": 2, "values": {"5": ZERO_SERIES}}))
    code = main(["solve-derivation", "--in", str(infile)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "bad derivation input: letter 5 outside alphabet of size 2\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "values, refusal",
    [
        # the letter is checked before the value's alphabet, both in __init__
        ({"5": {"alphabet": 3, "terms": []}}, "letter 5 outside alphabet of size 2"),
        ({"1": {"alphabet": 3, "terms": []}}, "generator value over a different alphabet"),
    ],
)
def test_solve_derivation_refuses_a_value_over_another_alphabet(tmp_path, capsys, values, refusal):
    infile = tmp_path / "derivation.json"
    infile.write_text(json.dumps({"alphabet": 2, "values": values}))
    code = main(["solve-derivation", "--in", str(infile)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"bad derivation input: {refusal}\n"
    assert captured.out == ""


COMMUTATOR_TEXT = json.dumps(COMMUTATOR)
ZERO_TEXT = json.dumps(ZERO_SERIES)


@pytest.mark.parametrize(
    "argv, text, refusal",
    [
        # plain json.load kept the later zero value and solved for the zero symbol
        (
            ["solve-derivation", "--in"],
            f'{{"alphabet": 2, "values": {{"0": {COMMUTATOR_TEXT}, "0": {ZERO_TEXT}}}}}',
            "bad derivation input:",
        ),
        # plain json.load dumped this as alphabet 3 with the entry z2,e,5.0,0.0
        (
            ["verify-operators", "--cutoff", "1", "--dump-matrix"],
            '{"alphabet": 2, "alphabet": 3,'
            ' "terms": [{"word": "z2", "re": 1.0, "im": 0.0, "re": 5.0}]}',
            "bad series input:",
        ),
        (
            ["trivialize-cocycle", "--in"],
            '{"arity": 3, "alphabet": 2,'
            ' "terms": [{"words": ["z0", "z1", "z0"], "re": 1.5, "im": 0.0, "im": 2.0}]}',
            "bad cochain input:",
        ),
        (
            ["verify-words", "--replay"],
            '{"check": "words.power_shift_sweep",'
            ' "params": {"m": 2, "w_max": 2, "u_max": 3, "m": 3}}',
            "bad replay payload:",
        ),
    ],
    ids=["solve-derivation", "dump-matrix", "trivialize-cocycle", "replay"],
)
def test_repeated_json_keys_are_bad_input(tmp_path, capsys, argv, text, refusal):
    infile = tmp_path / "input.json"
    infile.write_text(text)
    code = main([*argv, str(infile)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(refusal)
    assert "repeated" in captured.err
    assert captured.out == ""


#: Two terms at one key, each in float range, whose sum is not.
HUGE = {"re": 1e308}
HUGE_IM = {"re": 0.0, "im": -1e308}
#: (argv, bad-input refusal, JSON) with such a sum.
OVERFLOWING_SUMS = [
    (
        ["solve-derivation", "--in"],
        "bad derivation input:",
        {
            "alphabet": 2,
            "values": {
                "0": {
                    "alphabet": 2,
                    "terms": [
                        {"word": "z0z1", **HUGE},
                        {"word": "z1", "re": 1.0},
                        {"word": "z0z1", **HUGE},
                    ],
                }
            },
        },
    ),
    (
        ["trivialize-cocycle", "--in"],
        "bad cochain input:",
        {
            "arity": 2,
            "alphabet": 2,
            "terms": [{"words": ["z0", "z1"], **HUGE}, {"words": ["z0", "z1"], **HUGE}],
        },
    ),
    (
        ["trivialize-cocycle", "--in"],
        "bad cochain input:",
        {
            "arity": 2,
            "alphabet": 2,
            "terms": [{"words": ["e", "z1"], **HUGE_IM}, {"words": ["e", "z1"], **HUGE_IM}],
        },
    ),
    (
        ["verify-operators", "--cutoff", "2", "--dump-matrix"],
        "bad series input:",
        {"alphabet": 2, "terms": [{"word": "z0z1", **HUGE}, {"word": "z0z1", **HUGE}]},
    ),
]


@pytest.mark.parametrize(
    "argv, refusal, data", OVERFLOWING_SUMS, ids=["derivation", "cochain", "cochain_im", "series"]
)
def test_a_sum_past_float_range_is_bad_input(tmp_path, capsys, argv, refusal, data):
    infile = tmp_path / "input.json"
    infile.write_text(json.dumps(data))
    code = main([*argv, str(infile)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(refusal)
    assert "non-finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("values", ["[]", '"z0"', "3", "null"])
def test_derivation_values_that_are_not_an_object_are_bad_input(tmp_path, capsys, values):
    infile = tmp_path / "derivation.json"
    infile.write_text('{"alphabet": 2, "values": %s}' % values)
    code = main(["solve-derivation", "--in", str(infile)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("bad derivation input:")
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, refusal, text",
    [
        (["solve-derivation", "--in"], "bad derivation input:", '{"alphabet": true, "values": {}}'),
        (
            ["solve-derivation", "--in"],
            "bad derivation input:",
            '{"alphabet": 1, "values": {"0": {"alphabet": true, "terms": []}}}',
        ),
        (
            ["trivialize-cocycle", "--in"],
            "bad cochain input:",
            '{"arity": 2, "alphabet": true, "terms": []}',
        ),
        (
            ["verify-operators", "--cutoff", "2", "--dump-matrix"],
            "bad series input:",
            '{"alphabet": true, "terms": [{"word": "z0", "re": 1.0}]}',
        ),
    ],
    ids=["derivation", "derivation_value", "cochain_alphabet", "series"],
)
def test_json_true_is_not_a_size(tmp_path, capsys, argv, refusal, text):
    infile = tmp_path / "input.json"
    infile.write_text(text)
    code = main([*argv, str(infile)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(refusal)
    assert captured.out == ""


#: The three JSON readers: argv before the input path, and the refusal.
READERS = {
    "derivation": (["solve-derivation", "--in"], "bad derivation input:"),
    "cochain": (["trivialize-cocycle", "--in"], "bad cochain input:"),
    "series": (["verify-operators", "--cutoff", "2", "--dump-matrix"], "bad series input:"),
}


def _in_derivation(series_text):
    return '{"alphabet": 2, "values": {"0": %s}}' % series_text


#: (reader, JSON text, the message of its own) for each malformed structure.
MALFORMED = {
    "input_list_derivation": ("derivation", "[]", "the input must be a JSON object, not []"),
    "input_string_cochain": ("cochain", '"z0"', "the input must be a JSON object, not 'z0'"),
    "input_number_series": ("series", "5", "the input must be a JSON object, not 5"),
    "values_entry_number": (
        "derivation",
        _in_derivation("5"),
        "the value of generator 0 must be a JSON object, not 5",
    ),
    "values_entry_list": (
        "derivation",
        _in_derivation('["z0"]'),
        "the value of generator 0 must be a JSON object, not ['z0']",
    ),
    # each of these gave "string indices must be integers, not 'str'"
    "terms_object_derivation": (
        "derivation",
        _in_derivation('{"alphabet": 2, "terms": {"word": "z0", "re": 1.0}}'),
        "terms must be a JSON list, not {'word': 'z0', 're': 1.0}",
    ),
    "terms_object_cochain": (
        "cochain",
        '{"arity": 2, "alphabet": 2, "terms": {"words": ["z0", "z1"], "re": 1.0}}',
        "terms must be a JSON list, not {'words': ['z0', 'z1'], 're': 1.0}",
    ),
    "terms_string_series": (
        "series",
        '{"alphabet": 2, "terms": "z0"}',
        "terms must be a JSON list, not 'z0'",
    ),
    # each of these gave "'int' object is not subscriptable"
    "term_number_derivation": (
        "derivation",
        _in_derivation('{"alphabet": 2, "terms": [5]}'),
        "a term must be a JSON object, not 5",
    ),
    "term_number_cochain": (
        "cochain",
        '{"arity": 2, "alphabet": 2, "terms": [5]}',
        "a term must be a JSON object, not 5",
    ),
    "term_list_series": (
        "series",
        '{"alphabet": 2, "terms": [["z0", 1.0]]}',
        "a term must be a JSON object, not ['z0', 1.0]",
    ),
    # each of these gave "unhashable type: 'list'"
    "word_list_derivation": (
        "derivation",
        _in_derivation('{"alphabet": 2, "terms": [{"word": ["z0"], "re": 1.0}]}'),
        "a word text must be a JSON string, not ['z0']",
    ),
    "word_list_series": (
        "series",
        '{"alphabet": 2, "terms": [{"word": ["z0"], "re": 1.0}]}',
        "a word text must be a JSON string, not ['z0']",
    ),
    "word_number_series": (
        "series",
        '{"alphabet": 2, "terms": [{"word": 0, "re": 1.0}]}',
        "a word text must be a JSON string, not 0",
    ),
    "word_list_cochain": (
        "cochain",
        '{"arity": 2, "alphabet": 2, "terms": [{"words": [["z0"], "z1"], "re": 1.0}]}',
        "holds a text that is not a string",
    ),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_structure_is_bad_input_with_a_message_of_its_own(tmp_path, capsys, case):
    reader, text, message = MALFORMED[case]
    argv, refusal = READERS[reader]
    infile = tmp_path / "input.json"
    infile.write_text(text)
    code = main([*argv, str(infile)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(refusal)
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("text", ["z0,z1", "z0,"])
@pytest.mark.parametrize("reader", ["derivation", "series", "cochain"])
def test_a_text_that_holds_the_bulk_separator_is_not_a_word(tmp_path, capsys, reader, text):
    # the texts of a value, or a cochain's distinct texts, are matched joined
    # by ","; "z0,z1" must not pass as two words
    series = {"alphabet": 2, "terms": [{"word": "z1", "re": 1.0}, {"word": text, "re": 1.0}]}
    data = {"alphabet": 2, "values": {"0": series}} if reader == "derivation" else series
    if reader == "cochain":
        terms = [{"words": ["z1", "e"], "re": 1.0}, {"words": ["z0", text], "re": 1.0}]
        data = {"arity": 2, "alphabet": 2, "terms": terms}
    argv, refusal = READERS[reader]
    infile = tmp_path / "input.json"
    infile.write_text(json.dumps(data))
    code = main([*argv, str(infile)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"{refusal} not a word: {text!r}\n"
    assert captured.out == ""


def test_faults_in_several_terms_report_the_earliest_stage(tmp_path, capsys):
    # a bad text in term 0 and a term that is no object in term 2: the term
    # objects are read before any text, so term 2's fault is the one named
    infile = tmp_path / "input.json"
    infile.write_text(_in_derivation(
        '{"alphabet": 2, "terms": [{"word": "z0q", "re": 1.0}, {"word": "z1", "re": 1.0}, 5]}'
    ))
    code = main(["solve-derivation", "--in", str(infile)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "bad derivation input: a term must be a JSON object, not 5\n"
    # the texts are read before any coefficient part
    infile.write_text(_in_derivation(
        '{"alphabet": 2, "terms": [{"word": "z0", "re": "1"}, {"word": "z0q", "re": 1.0}]}'
    ))
    assert main(["solve-derivation", "--in", str(infile)]) == 2
    assert capsys.readouterr().err == "bad derivation input: not a word: 'z0q'\n"


#: Two faults in one cochain input, the later term's in an earlier stage,
#: and the refusal that names it.
COCHAIN_FAULT_PAIRS = {
    # term objects come before keys
    "term_before_key": ('{"words": ["z0"], "re": 1.0}, 5', "a term must be a JSON object, not 5"),
    # key shapes come before texts
    "key_before_text": (
        '{"words": ["z0q", "e"], "re": 1.0}, {"words": "z0", "re": 1.0}',
        "cochain key 'z0' is not a list of 2 words",
    ),
    # texts come before coefficient parts
    "text_before_part": (
        '{"words": ["z0", "e"], "re": "1"}, {"words": ["z0q", "e"], "re": 1.0}',
        "not a word: 'z0q'",
    ),
    # coefficient parts come before the letter bound
    "part_before_letter": (
        '{"words": ["z5", "e"], "re": 1.0}, {"words": ["z0", "e"], "re": true}',
        "coefficient parts True, 0.0 are not both JSON numbers",
    ),
    # within a stage, the earlier term's fault
    "first_letter_bound": (
        '{"words": ["z3", "e"], "re": 1.0}, {"words": ["z9", "e"], "re": 1.0}',
        "letter 3 outside alphabet of size 2",
    ),
}


@pytest.mark.parametrize("case", list(COCHAIN_FAULT_PAIRS))
def test_cochain_faults_in_several_terms_report_the_earliest_stage(tmp_path, capsys, case):
    terms, message = COCHAIN_FAULT_PAIRS[case]
    infile = tmp_path / "input.json"
    infile.write_text('{"arity": 2, "alphabet": 2, "terms": [%s]}' % terms)
    assert main(["trivialize-cocycle", "--in", str(infile)]) == 2
    assert capsys.readouterr().err == f"bad cochain input: {message}\n"


#: Two faults in one series input, the later term's in an earlier stage,
#: and the refusal that names it: the stages of the cochain reader.
SERIES_FAULT_PAIRS = {
    # key shapes come before texts
    "key_before_text": (
        '{"word": "z0q", "re": 1.0}, {"word": 5, "re": 1.0}',
        "a word text must be a JSON string, not 5",
    ),
    # coefficient parts come before the letter bound
    "part_before_letter": (
        '{"word": "z5", "re": 1.0}, {"word": "z0", "re": true}',
        "coefficient parts True, 0.0 are not both JSON numbers",
    ),
    # within a stage, the earlier term's fault
    "first_letter_bound": (
        '{"word": "z3", "re": 1.0}, {"word": "z9", "re": 1.0}',
        "letter 3 outside alphabet of size 2",
    ),
}


@pytest.mark.parametrize("case", list(SERIES_FAULT_PAIRS))
def test_series_faults_in_several_terms_report_the_earliest_stage(tmp_path, capsys, case):
    terms, message = SERIES_FAULT_PAIRS[case]
    infile = tmp_path / "input.json"
    infile.write_text(_in_derivation('{"alphabet": 2, "terms": [%s]}' % terms))
    assert main(["solve-derivation", "--in", str(infile)]) == 2
    assert capsys.readouterr().err == f"bad derivation input: {message}\n"


#: (word, re) terms with one fault each, as a series and as a cochain of arity 1.
ONE_SLOT_FAULTS = {
    "bad_text": [("z0q", 1.0)],
    "text_with_separator": [("z1", 1.0), ("z0,z1", 1.0)],
    "part_not_a_number": [("z0", "1")],
    "part_past_float_range": [("z0", 10**400)],
    "letter_past_size": [("z1", 1.0), ("z0z7", 1.0)],
    "sum_past_float_range": [("z0z1", 1e308), ("e", 1.0), ("z0z1", 1e308)],
}


@pytest.mark.parametrize("case", list(ONE_SLOT_FAULTS))
def test_series_and_cochain_readers_refuse_a_fault_alike(tmp_path, capsys, case):
    terms = ONE_SLOT_FAULTS[case]
    series = {"alphabet": 2, "terms": [{"word": w, "re": re} for w, re in terms]}
    cochain = {"arity": 1, "alphabet": 2, "terms": [{"words": [w], "re": re} for w, re in terms]}
    messages = []
    for reader, data in [
        ("derivation", {"alphabet": 2, "values": {"0": series}}),
        ("cochain", cochain),
    ]:
        argv, refusal = READERS[reader]
        infile = tmp_path / "input.json"
        infile.write_text(json.dumps(data))
        assert main([*argv, str(infile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{refusal} ")
        messages.append(err.removeprefix(f"{refusal} "))
    assert messages[0] == messages[1]


@pytest.mark.parametrize(
    "term, message",
    [
        ('{"words": ["z0", "z1"], "re": -1.0, "note": "caf\u00e9"}', None),
        # stderr is ASCII under this locale, so the refusal escapes the letter
        ('{"words": ["z\u00e9", "e"], "re": 1.0}', "bad cochain input: not a word: 'z\\xe9'\n"),
    ],
)
def test_json_input_is_read_as_utf8_under_an_ascii_locale(tmp_path, term, message):
    # JSON is UTF-8 whatever the locale says; the C locale, with its coercion
    # and the UTF-8 mode both off, would decode the file as ASCII
    infile = tmp_path / "cochain.json"
    infile.write_bytes(('{"arity": 2, "alphabet": 2, "terms": [%s]}' % term).encode("utf-8"))
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}
    env.pop("PYTHONUTF8", None)
    result = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-m", "ncdisc", "trivialize-cocycle", "--in", str(infile)],
        capture_output=True,
        text=True,
        encoding="ascii",
        env=env,
    )
    if message is None:
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["cochain"]["terms"] == [
            {"im": 0.0, "re": 1.0, "words": ["z0z1"]}
        ]
    else:
        assert result.returncode == 2
        assert result.stderr == message


#: JSON leaves: the literals, ints past 64 bits, signed zeros, floats whose
#: repr switches to an exponent, the non-finite floats and numpy.float64, and
#: strings with quotes, backslashes, control and non-ASCII characters.
JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**64, -(2**100), 0, -1]),
    st.floats(),
    st.sampled_from([0.0, -0.0, 1e16, 1e-7, float("nan"), float("inf"), float("-inf")]),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.text(),
    st.sampled_from(['"', "\\", "\n\t\x00\x1f", "caf\u00e9", "\U0001f600", ""]),
)

#: Nested lists, tuples and objects with string keys, empty ones included.
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(JSON_VALUES)
@example({})
@example([[]])
@example({"a": [{}, []], "b": {}})
@example({"b": 1, "a": [0.1, -0.0, True, None, np.float64(-0.0)]})
@example({2: "a", 2.5: "b", True: None})
@example({None: 1})
def test_json_text_writes_what_json_dumps_writes(value):
    assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "value",
    [{1, 2}, b"z0", np.int64(3), object(), {(1,): 1}, {1: "a", "b": 2}],
)
def test_json_text_refuses_what_json_refuses(value):
    for nested in (value, [value], {"a": {"b": [1.0, value]}}):
        with pytest.raises(TypeError) as expected:
            json.dumps(nested, indent=2, sort_keys=True)
        with pytest.raises(TypeError) as got:
            cli._json_text(nested)
        assert str(got.value) == str(expected.value)


def test_json_text_hands_a_cycle_to_json():
    cycle = {"a": []}
    cycle["a"].append(cycle)
    with pytest.raises(ValueError, match="Circular reference detected"):
        cli._json_text(cycle)


def test_derivation_over_the_generator_budget_is_refused_before_allocation(tmp_path, capsys):
    # one small term, but a value per generator to build, peel and screen
    size = MAX_GENERATORS + 1
    series = {"alphabet": size, "terms": [{"word": "z1", "re": 1.0}]}
    infile = tmp_path / "input.json"
    infile.write_text(json.dumps({"alphabet": size, "values": {"0": series}}))
    tracemalloc.start()
    try:
        code = main(["solve-derivation", "--in", str(infile)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        f"bad derivation input: alphabet size {size} is over {MAX_GENERATORS} generators\n"
    )
    assert peak < 2**20
    # the budget itself is accepted
    series["alphabet"] = MAX_GENERATORS
    infile.write_text(json.dumps({"alphabet": MAX_GENERATORS, "values": {"0": series}}))
    assert main(["solve-derivation", "--in", str(infile)]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["check"] == "residual"


def test_replay_payload_that_is_not_an_object_is_bad_input(tmp_path, capsys):
    infile = tmp_path / "payload.json"
    infile.write_text('["words.concat_laws", {}]')
    code = main(["verify-words", "--replay", str(infile)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("bad replay payload: the input must be a JSON object")


def _series_json(m, terms):
    return {"alphabet": m, "terms": [{"word": w, "re": c.real, "im": c.imag} for w, c in terms]}


def test_solve_derivation_reports_the_generator_residual(tmp_path, capsys):
    # z1 and z2 peel t = 2 z0 from the value at z2, whose commutator with z1
    # is 2 z1z0 - 2 z0z1, not the zero value given at z1
    data = {
        "alphabet": 3,
        "values": {
            "0": _series_json(3, []),
            "1": _series_json(3, []),
            "2": _series_json(3, [("z2z0", 2.0), ("z0z2", -2.0)]),
        },
    }
    infile = tmp_path / "derivation.json"
    infile.write_text(json.dumps(data))
    code, out = run(capsys, "solve-derivation", "--in", str(infile))
    assert code == 1
    error = json.loads(out)["error"]
    assert error == {
        "check": "generator_residual",
        "message": "recovered series leaves a residue of size 2.000e+00 at generator z1",
        "word": None,
    }


def test_solve_derivation_reports_the_deviation_of_each_final_commutator(tmp_path, capsys):
    # weights across eight decades: the stabilized sum rounds, so some
    # recovered symbols miss their commutators by a few units in the last place
    alphabet = Alphabet(3)
    infile = tmp_path / "derivation.json"
    deviations = []
    for seed in range(10):
        rng = random.Random(seed)
        symbol = Series(
            alphabet,
            {
                alphabet.word(rng.randrange(3) for _ in range(rng.randint(1, 4))): complex(
                    rng.uniform(-1, 1) * 10.0 ** rng.randint(-6, 2),
                    rng.uniform(-1, 1) * 10.0 ** rng.randint(-6, 2),
                )
                for _ in range(12)
            },
        )
        infile.write_text(json.dumps(GeneratorDerivation.inner(symbol).to_json_dict()))
        code, out = run(capsys, "solve-derivation", "--in", str(infile))
        assert code == 0
        result = json.loads(out)
        derivation = GeneratorDerivation.from_json_dict(json.loads(infile.read_text()))
        recovered = Series.from_json_dict(result["series"])
        expected = {
            f"z{a}": max_coeff_diff(
                inner_derivation(recovered, Series.basis(alphabet.generator(a))),
                derivation.value(a),
            )
            for a in alphabet.letters()
        }
        assert result["report"]["max_generator_deviation"] == expected
        deviations.extend(expected.values())
    assert any(deviation > 0.0 for deviation in deviations)


#: Derivations whose solve leaves float range, with the screen that reports it.
OVERFLOWING_SOLVES = {
    # the parent raised a traceback building the stabilized sum at z0
    "stabilized_sum": (
        {"0": _series_json(2, [("z0z1", 1e308), ("z1z0", 1e308)])},
        {
            "check": "residual",
            "message": "stabilized sum has weight (inf+0j) at z1z0, not left-divisible by z0",
            "word": "z1z0",
        },
    ),
    # z1 peels 1e308 z0; z2's value less its commutator then holds -inf at
    # z2z0 and inf at z0z2, which the pair screen cannot tell from a pair
    "peeled_symbol": (
        {
            "1": _series_json(3, [("z1z0", 1e308), ("z0z1", -1e308)]),
            "2": _series_json(3, [("z2z0", -1e308), ("z0z2", 1e308)]),
        },
        {"check": "non_finite", "message": "recovered series leaves float range", "word": None},
    ),
}


#: A finite coefficient whose modulus is past float range (abs() overflows).
BEYOND_MODULUS = {"re": 1.7e308, "im": 1.7e308}


def _command_in_a_child(argv):
    """``ncdisc`` run as a program, so that a traceback or a warning reaches stderr."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ncdisc", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_solve_derivation_of_a_modulus_past_float_range_is_a_verdict(tmp_path):
    infile = tmp_path / "derivation.json"
    term = {"word": "z0z1", **BEYOND_MODULUS}
    values = {"0": {"alphabet": 2, "terms": [term]}}
    infile.write_text(json.dumps({"alphabet": 2, "values": values}))
    result = _command_in_a_child(["solve-derivation", "--in", str(infile)])
    assert result.returncode == 1
    assert result.stderr == ""
    assert json.loads(result.stdout)["error"] == {
        "check": "residual",
        "message": (
            "stabilized sum has weight (1.7e+308+1.7e+308j) at z1z0, not left-divisible by z0"
        ),
        "word": "z1z0",
    }


def test_trivialize_cocycle_of_a_modulus_past_float_range_warns_nothing(tmp_path):
    infile = tmp_path / "cocycle.json"
    term = {"words": ["z0", "z1"], **BEYOND_MODULUS}
    infile.write_text(json.dumps({"arity": 2, "alphabet": 2, "terms": [term]}))
    result = _command_in_a_child(["trivialize-cocycle", "--in", str(infile)])
    assert result.returncode == 0
    assert result.stderr == ""
    [kept] = json.loads(result.stdout)["cochain"]["terms"]
    assert kept == {"words": ["z0z1"], "re": -1.7e308, "im": -1.7e308}


@pytest.mark.parametrize("case", list(OVERFLOWING_SOLVES))
def test_solve_derivation_past_float_range_is_a_failed_solve(tmp_path, capsys, case):
    values, error = OVERFLOWING_SOLVES[case]
    m = max(value["alphabet"] for value in values.values())
    infile = tmp_path / "derivation.json"
    infile.write_text(json.dumps({"alphabet": m, "values": values}))
    code, out = run(capsys, "solve-derivation", "--in", str(infile))
    assert code == 1
    assert json.loads(out)["error"] == error
