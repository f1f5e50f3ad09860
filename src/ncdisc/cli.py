"""Batch driver exposing the verification suites and solvers as subcommands.

Subcommands: ``verify-<suite>`` for each suite of ``checks.CHECKS``
(``verify-words``, ``verify-operators``, ``verify-derivations``,
``verify-cohomology``), ``report-all``, ``solve-derivation`` and
``trivialize-cocycle``.  Reports are machine readable (JSON, optionally
CSV), deterministic for a fixed configuration up to the timing fields, and
every failing check carries a replayable payload.

The checks and their suite parameters live in ``checks``; this module runs
them, turns a crash into a failed check, and writes the reports.  The two
solvers share ``_run_solver``, which owns reading ``--in``, the exit codes
and the output.  One writer, ``_json_text``, gives the JSON of every
report and result.

Exit codes: 0 all checks passed, 1 verification failure, 2 bad input or
configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from collections import Counter
from dataclasses import asdict, fields
from json.encoder import encode_basestring_ascii as _encode_string
from typing import Callable, Collection, Iterator, Optional, TextIO

from .checks import CHECKS, CheckFn, RunConfig, _check_operator_config
from .cohomology import Cochain, NonCocycleError, _check_homotopy_arity, trivialize
from .derivations import GeneratorDerivation, InconsistentDerivationError, _solve_with_deviations
from .operators import PowerIterationError, TruncationBasis, left_matrix, write_csv
from .series import Series, _json_typed

SCHEMA_VERSION = 1

#: Errors of unreadable or malformed input, JSON syntax errors included: exit 2.
_BAD_INPUT = (OSError, ValueError, KeyError, TypeError)


# --------------------------------------------------------------------------
# suites
# --------------------------------------------------------------------------


def _call_check(
    fn: CheckFn, params: dict, refused: tuple[type[Exception], ...] = ()
) -> Optional[dict]:
    """Run one check and return its counterexample, or None when it passes;
    a crash is a failed check whose params replay it.

    Exceptions of the ``refused`` types propagate: replay turns them into a
    refusal of the payload.
    """
    try:
        return fn(params)
    except refused:
        raise
    except PowerIterationError as err:
        return {"non_convergence": str(err)}
    except Exception as err:
        return {"exception": f"{type(err).__name__}: {err}"}


def _run_suite(suite: str, config: RunConfig) -> dict:
    """The report of one suite, as the dict that ``_json_text`` writes."""
    checks = []
    for name, check in CHECKS.items():
        if not name.startswith(suite + "."):
            continue
        params = check.params(config)
        start = time.perf_counter()
        counterexample = _call_check(check.run, params)
        elapsed = time.perf_counter() - start
        checks.append(
            {
                "name": name,
                "passed": counterexample is None,
                "params": params,
                "counterexample": counterexample,
                "elapsed_s": elapsed,
            }
        )
    return {
        "schema": SCHEMA_VERSION,
        "suite": suite,
        "passed": all(check["passed"] for check in checks),
        "config": asdict(config),
        "checks": checks,
    }


# --------------------------------------------------------------------------
# command plumbing
# --------------------------------------------------------------------------


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})
    config.validate()
    return config


def _suite_checks(report_dict: dict) -> Iterator[tuple[str, dict]]:
    """The (suite, check entry) pairs of a report, or of each report of a merged one."""
    for rep in report_dict.get("reports", [report_dict]):
        for check in rep.get("checks", ()):
            yield rep["suite"], check


#: ``json``'s spellings of the float values that have no JSON literal.
_FLOAT_SPECIALS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(value: object, newline: str = "") -> str:
    """The JSON form of every report and result: exactly what
    ``json.dumps(value, indent=2, sort_keys=True) + "\\n"`` writes, with the
    same exceptions.

    ``json`` indents only in its pure-Python encoder; this one recursive
    function does that encoder's work with less overhead.  It dispatches
    with ``isinstance`` in ``json.encoder``'s order, so a ``float`` subclass
    such as ``numpy.float64`` is written as a float, strings go through
    ``json``'s C escaper, and NaN and the infinities keep ``json``'s
    spellings.  ``newline`` is a newline plus the indentation of the line
    the value starts on; the whole text, written without it, ends with a
    newline.  A value nested past the recursion limit, a cycle among them,
    is handed to ``json.dumps``, which writes it or raises its own error.
    """
    if not newline:
        try:
            return _json_text(value, "\n") + "\n"
        except RecursionError:
            return json.dumps(value, indent=2, sort_keys=True) + "\n"
    if isinstance(value, str):
        return _encode_string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _FLOAT_SPECIALS.get(text, text)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_json_text(item, inner) for item in value]
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{_encode_string(key if isinstance(key, str) else _json_key(key))}: "
            f"{_json_text(item, inner)}"
            for key, item in sorted(value.items())
        ]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_key(key: object) -> str:
    """``json``'s text of an object key that is not a string."""
    if isinstance(key, (int, float)) or key is None:
        return _json_text(key, "\n")
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _report_text(report_dict: dict, fmt: str) -> str:
    if fmt == "json":
        return _json_text(report_dict)
    lines = ["suite,check,passed,elapsed_s"]
    for suite, check in _suite_checks(report_dict):
        lines.append(f"{suite},{check['name']},{check['passed']},{check['elapsed_s']}")
    return "\n".join(lines) + "\n"


def _write_out(path: str, write: Callable[[TextIO], object], newline: Optional[str] = None) -> bool:
    """Write a result file through ``write``; on failure say so on stderr and
    return False, so that the command exits 2."""
    try:
        with open(path, "w", newline=newline) as handle:
            write(handle)
    except OSError as err:
        print(f"cannot write output: {err}", file=sys.stderr)
        return False
    return True


def _emit_report(report_dict: dict, args: argparse.Namespace) -> bool:
    """Print or write the report; False when ``--out`` cannot be written."""
    text = _report_text(report_dict, args.format)
    if args.out:
        if not _write_out(args.out, lambda handle: handle.write(text)):
            return False
        for suite, check in _suite_checks(report_dict):
            status = "pass" if check["passed"] else "FAIL"
            print(f"{status}  {suite}: {check['name']}")
    else:
        print(text, end="")
    return True


def _cmd_replay(path: str) -> int:
    """Re-run one check from ``{"check": <name>, "params": {...}}`` or from a
    report's check entry, which says ``name``; params it refuses are a bad payload."""
    try:
        payload = _load_json(path)
        name = payload.get("check", payload.get("name"))
        counterexample = _call_check(CHECKS[name].run, payload.get("params"), _BAD_INPUT)
    except _BAD_INPUT as err:
        print(f"bad replay payload: {err}", file=sys.stderr)
        return 2
    passed = counterexample is None
    print(_json_text({"check": name, "passed": passed, "counterexample": counterexample}), end="")
    return 0 if passed else 1


def _cmd_verify(args: argparse.Namespace, suites: Collection[str]) -> int:
    if getattr(args, "dump_matrix", None):
        return _cmd_dump_matrix(args)
    if getattr(args, "replay", None):
        return _cmd_replay(args.replay)
    try:
        config = _config_from_args(args)
        if "operators" in suites:
            _check_operator_config(config)
    except ValueError as err:
        print(f"bad configuration: {err}", file=sys.stderr)
        return 2
    reports = [_run_suite(name, config) for name in sorted(suites)]
    if len(reports) == 1:
        (merged,) = reports
    else:
        merged = {
            "schema": SCHEMA_VERSION,
            "suite": "all",
            "passed": all(report["passed"] for report in reports),
            "reports": reports,
        }
    if not _emit_report(merged, args):
        return 2
    return 0 if merged["passed"] else 1


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """JSON object hook: refuse a repeated key, which plain ``json`` keeps the last of."""
    table = dict(pairs)
    if len(table) < len(pairs):
        counts = Counter(key for key, _ in pairs)
        repeated = next(key for key, count in counts.items() if count > 1)
        raise ValueError(f"repeated JSON object key {repeated!r}")
    return table


def _load_json(path: str) -> dict:
    """The JSON object in the file ``path``, read as UTF-8 as JSON is."""
    with open(path, encoding="utf-8") as handle:
        return _json_typed(json.load(handle, object_pairs_hook=_unique_keys), dict, "the input")


def _cmd_dump_matrix(args: argparse.Namespace) -> int:
    """Write the left compression of a series as a word-labelled CSV."""
    try:
        series = Series.from_json_dict(_load_json(args.dump_matrix))
    except _BAD_INPUT as err:
        print(f"bad series input: {err}", file=sys.stderr)
        return 2
    try:
        config = _config_from_args(args)
        basis = TruncationBasis(series.alphabet, config.cutoff)
    except ValueError as err:
        print(f"bad configuration: {err}", file=sys.stderr)
        return 2
    op = left_matrix(series, basis)
    if args.out:
        if not _write_out(args.out, lambda handle: write_csv(op, handle), newline=""):
            return 2
    else:
        write_csv(op, sys.stdout)
    return 0


def _run_solver(
    args: argparse.Namespace,
    suite: str,
    what: str,
    read: Callable[[dict], object],
    solve: Callable[[object], tuple[dict, Optional[tuple[str, dict]]]],
) -> int:
    """The solver protocol around ``read`` and ``solve``.

    Input that ``read`` or ``solve`` refuses, as a size past a kernel's
    bound, is exit 2 with ``bad <what> input:``.
    ``solve`` returns its report fields and the result as ``(key, data)``,
    or no result when the input is refused, which prints the error report
    alone and exits 1.  The result goes to ``--out``, or to stdout as
    ``{key: data, "report": report}``.
    """
    try:
        summary, result = solve(read(_load_json(args.infile)))
    except _BAD_INPUT as err:
        print(f"bad {what} input: {err}", file=sys.stderr)
        return 2
    report = {"schema": SCHEMA_VERSION, "suite": suite, **summary}
    if result is None:
        print(_json_text(report), end="")
        return 1
    key, data = result
    if args.out:
        if not _write_out(args.out, lambda handle: handle.write(_json_text(data))):
            return 2
        print(_json_text(report), end="")
    else:
        print(_json_text({key: data, "report": report}), end="")
    return 0 if report["passed"] else 1


def _solve_derivation(derivation: GeneratorDerivation) -> tuple[dict, Optional[tuple]]:
    try:
        symbol, deviations = _solve_with_deviations(derivation)
    except InconsistentDerivationError as err:
        word = None if err.word is None else str(err.word)
        error = {"check": err.check, "message": str(err), "word": word}
        return {"passed": False, "error": error}, None
    verification = {f"z{a}": deviation for a, deviation in enumerate(deviations)}
    report = {"passed": True, "max_generator_deviation": verification}
    return report, ("series", symbol.to_json_dict())


def _read_cocycle(data: dict) -> Cochain:
    return _check_homotopy_arity(Cochain.from_json_dict(data))


def _trivialize(phi: Cochain) -> tuple[dict, Optional[tuple]]:
    try:
        psi, residual = trivialize(phi)
    except NonCocycleError as err:
        error = {"message": "input is not a cocycle", "witness": [str(w) for w in err.witness]}
        return {"passed": False, "error": error}, None
    residual_terms = len(residual)
    report = {"passed": residual_terms == 0, "residual_terms": residual_terms}
    return report, ("cochain", psi.to_json_dict())


def _cmd_solve_derivation(args: argparse.Namespace) -> int:
    read = GeneratorDerivation.from_json_dict
    return _run_solver(args, "solve-derivation", "derivation", read, _solve_derivation)


def _cmd_trivialize_cocycle(args: argparse.Namespace) -> int:
    return _run_solver(args, "trivialize-cocycle", "cochain", _read_cocycle, _trivialize)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Each handler is looked up
    in this module when it runs, so a rebound ``_cmd_*`` is honoured."""
    defaults = RunConfig()
    shared = argparse.ArgumentParser(add_help=False)
    for flag, help_text in (
        ("--alphabet", "number of generators"),
        ("--max-len", "word length bound for sweeps"),
        ("--cutoff", "matrix truncation degree"),
        ("--seed", "seed for randomized checks"),
        ("--tol", "norm estimation tolerance"),
    ):
        default = getattr(defaults, flag[2:].replace("-", "_"))
        shared.add_argument(flag, type=type(default), default=default, help=help_text)
    shared.add_argument("--out", help="write the report or result to this path")
    shared.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format"
    )
    shared.add_argument("--replay", help="re-run a single check from a failure payload")

    parser = argparse.ArgumentParser(
        prog="ncdisc",
        description="verification suites and solvers for free semigroup convolution algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    suites = list(dict.fromkeys(name.partition(".")[0] for name in CHECKS))
    for suite in suites:
        verify = sub.add_parser(f"verify-{suite}", parents=[shared])
        verify.set_defaults(handler=lambda args, suite=suite: _cmd_verify(args, [suite]))
        if suite == "operators":
            verify.add_argument(
                "--dump-matrix",
                metavar="SERIES_JSON",
                help="instead of verifying, dump the left compression of this series as CSV",
            )
    sub.add_parser("report-all", parents=[shared]).set_defaults(
        handler=lambda args: _cmd_verify(args, suites)
    )

    solve = sub.add_parser("solve-derivation")
    solve.add_argument("--in", dest="infile", required=True, help="derivation JSON input")
    solve.add_argument("--out", help="write the recovered series JSON to this path")
    solve.set_defaults(handler=lambda args: _cmd_solve_derivation(args))

    trivialize = sub.add_parser("trivialize-cocycle")
    trivialize.add_argument("--in", dest="infile", required=True, help="cochain JSON input")
    trivialize.add_argument("--out", help="write the trivializing cochain JSON to this path")
    trivialize.set_defaults(handler=lambda args: _cmd_trivialize_cocycle(args))
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
