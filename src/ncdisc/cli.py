"""Batch driver exposing the verification suites and solvers as subcommands.

Subcommands: ``verify-<suite>`` for each suite of ``checks.CHECKS``
(``verify-words``, ``verify-operators``, ``verify-derivations``,
``verify-cohomology``) and ``report-all`` run the checks at a
configuration; ``replay`` re-runs the one check a payload names;
``solve-derivation``, ``trivialize-cocycle`` and ``dump-matrix`` read
``--in``.  Reports are machine readable (JSON, optionally CSV),
deterministic for a fixed configuration up to the timing fields, and
every failing check carries a replayable payload.

The checks and their suite parameters live in ``checks``; this module runs
them, turns a crash into a failed check, and writes the reports.  A check
outcome has one shape, the report entry ``_check_entry`` builds, whether
a suite or a replay ran it, and a report entry replays as it stands.  The
two solvers share ``_run_solver``, which owns reading ``--in``, the exit
codes and the output.  One writer, ``_json_text``, gives the JSON of every
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

from .checks import CHECKS, RunConfig, _check_operator_config
from .cohomology import Cochain, NonCocycleError, trivialize
from .derivations import GeneratorDerivation, InconsistentDerivationError, _solve_with_deviations
from .operators import PowerIterationError, TruncationBasis, left_matrix, write_csv
from .series import Series, _json_typed

SCHEMA_VERSION = 1

#: Errors of unreadable or malformed input, JSON syntax errors included: exit 2.
_BAD_INPUT = (OSError, ValueError, KeyError, TypeError)


# --------------------------------------------------------------------------
# suites
# --------------------------------------------------------------------------


def _check_entry(name: str, params: dict, refused: tuple[type[Exception], ...] = ()) -> dict:
    """Run the check ``name`` on ``params`` and return its report entry; a
    crash is a failed check whose params replay it.

    Exceptions of the ``refused`` types propagate: replay turns them into a
    refusal of the payload.
    """
    run = CHECKS[name].run
    start = time.perf_counter()
    try:
        counterexample = run(params)
    except refused:
        raise
    except PowerIterationError as err:
        counterexample = {"non_convergence": str(err)}
    except Exception as err:
        counterexample = {"exception": f"{type(err).__name__}: {err}"}
    return {
        "name": name,
        "passed": counterexample is None,
        "params": params,
        "counterexample": counterexample,
        "elapsed_s": time.perf_counter() - start,
    }


def _run_suite(suite: str, config: RunConfig) -> dict:
    """The report of one suite, as the dict that ``_json_text`` writes."""
    checks = [
        _check_entry(name, check.params(config))
        for name, check in CHECKS.items()
        if name.startswith(suite + ".")
    ]
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


def _emit_report(report_dict: dict, args: argparse.Namespace) -> int:
    """Print or write the report; the exit code, 2 when ``--out`` cannot be written."""
    text = _report_text(report_dict, args.format)
    if args.out:
        if not _write_out(args.out, lambda handle: handle.write(text)):
            return 2
        for suite, check in _suite_checks(report_dict):
            status = "pass" if check["passed"] else "FAIL"
            print(f"{status}  {suite}: {check['name']}")
    else:
        print(text, end="")
    return 0 if report_dict["passed"] else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    """Re-run one check from ``{"check": <name>, "params": {...}}`` or from a
    report's check entry, which says ``name``, and report it as a one-check
    suite; params it refuses are a bad payload."""
    try:
        payload = _load_json(args.infile)
        name = payload.get("check", payload.get("name"))
        entry = _check_entry(name, payload.get("params"), _BAD_INPUT)
    except _BAD_INPUT as err:
        print(f"bad replay payload: {err}", file=sys.stderr)
        return 2
    report = {
        "schema": SCHEMA_VERSION,
        "suite": name.partition(".")[0],
        "passed": entry["passed"],
        "checks": [entry],
    }
    return _emit_report(report, args)


def _cmd_verify(args: argparse.Namespace, suites: Collection[str]) -> int:
    try:
        config = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})
        config.validate()
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
    return _emit_report(merged, args)


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
        series = Series.from_json_dict(_load_json(args.infile))
    except _BAD_INPUT as err:
        print(f"bad series input: {err}", file=sys.stderr)
        return 2
    try:
        basis = TruncationBasis(series.alphabet, args.cutoff)
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
    return _run_solver(args, "trivialize-cocycle", "cochain", Cochain.from_json_dict, _trivialize)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: one definition per flag,
    and each command lists the flags it reads.  Each handler is looked up
    in this module when it runs, so a rebound ``_cmd_*`` is honoured."""
    defaults = RunConfig()
    config = {
        f"--{name.replace('_', '-')}": {
            "type": type(getattr(defaults, name)),
            "default": getattr(defaults, name),
            "help": help_text,
        }
        for name, help_text in (
            ("alphabet", "number of generators"),
            ("max_len", "word length bound for sweeps"),
            ("cutoff", "matrix truncation degree"),
            ("seed", "seed for randomized checks"),
            ("tol", "norm estimation tolerance"),
        )
    }
    flags = {
        **config,
        "--in": {"dest": "infile", "required": True, "help": "the JSON input"},
        "--out": {"help": "write the report or result to this path"},
        "--format": {"choices": ("json", "csv"), "default": "json", "help": "report format"},
    }

    parser = argparse.ArgumentParser(
        prog="ncdisc",
        description="verification suites and solvers for free semigroup convolution algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler: Callable[[argparse.Namespace], int], *names: str) -> None:
        command_parser = sub.add_parser(name)
        for flag in names:
            command_parser.add_argument(flag, **flags[flag])
        command_parser.set_defaults(handler=handler)

    run_flags = (*config, "--out", "--format")
    suites = list(dict.fromkeys(name.partition(".")[0] for name in CHECKS))
    for suite in suites:
        command(f"verify-{suite}", lambda args, suite=suite: _cmd_verify(args, [suite]), *run_flags)
    command("report-all", lambda args: _cmd_verify(args, suites), *run_flags)
    command("replay", lambda args: _cmd_replay(args), "--in", "--out", "--format")
    command("solve-derivation", lambda args: _cmd_solve_derivation(args), "--in", "--out")
    command("trivialize-cocycle", lambda args: _cmd_trivialize_cocycle(args), "--in", "--out")
    command("dump-matrix", lambda args: _cmd_dump_matrix(args), "--in", "--cutoff", "--out")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
