"""Spans around the public calls into each ncdisc layer, installed from outside.

The package carries no instrumentation.  ``install`` replaces each target
in ``TARGETS`` by a timing wrapper, in every loaded ``ncdisc`` module that
bound it (functions are imported by name across modules) or on its class
(methods), and ``uninstall`` puts the originals back, so untraced passes
run unmodified code.

Every wrapped call updates per-name call counts, inclusive time and self
time: its duration minus the durations of the wrapped calls directly
inside it.  Times come from the clock the tracer is given: thread CPU
seconds, less the speed probes' own time.  Calls also become spans ``(name, start, end, parent)`` kept in
memory and written out at the end, except the hot word operations, which
run about a million times per pass and are counted without a span.
``install`` returns the targets missing from the package; a traced run
refuses to report when there are any, because their metrics would read 0.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from typing import Any, Callable, Optional

LAYERS = ("words", "series", "operators", "derivations", "cohomology", "cli")

Observer = Callable[["Tracer", tuple, Any, Optional[BaseException], float], None]


class Tracer:
    """Span recorder with per-name aggregates; one caller, one thread."""

    def __init__(self, clock: Callable[[], float] = time.thread_time) -> None:
        self.clock = clock
        self.spans: list[Optional[tuple[str, float, float, int]]] = []
        # each frame is [time spent in wrapped children, id of the nearest span]
        self.stack: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)

    def wrap(
        self,
        name: str,
        fn: Callable,
        record: bool = True,
        observe: Optional[Observer] = None,
    ) -> Callable:
        tracer = self
        clock = self.clock

        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][1] if stack else -1
            span_id = parent
            if record:
                span_id = len(tracer.spans)
                tracer.spans.append(None)
            frame = [0.0, span_id]
            stack.append(frame)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                error = err
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                tracer.calls[name] += 1
                tracer.total[name] += duration
                tracer.self_time[name] += duration - frame[0]
                if record:
                    tracer.spans[span_id] = (name, start, end, parent)
                if observe is not None:
                    observe(tracer, args, result, error, duration)

        traced.__wrapped__ = fn
        return traced

    def run(self, name: str, fn: Callable[[], Any]) -> Any:
        """Call fn inside a recorded root span (one per benchmark job)."""
        return self.wrap(name, fn)()

    def layer_self_time(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS + ("bench",)}
        for name, value in self.self_time.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + value
        return out

    def write_spans(self, path: str) -> int:
        """One JSON array ``[id, name, start, end, parent]`` per line; returns the count."""
        count = 0
        with open(path, "w") as handle:
            for span_id, span in enumerate(self.spans):
                if span is not None:
                    handle.write(json.dumps([span_id, *span]) + "\n")
                    count += 1
        return count


# -- counters read off arguments and results -------------------------------


def _convolve(tracer, args, result, error, duration):
    tracer.counters["series.convolve.term_pairs"] += len(args[0]) * len(args[1])


def _conjugate_by(tracer, args, result, error, duration):
    tracer.counters["series.conjugate_by.terms_in"] += len(args[1])


def _basis(tracer, args, result, error, duration):
    if error is None:
        dim_max = tracer.maxima["operators.TruncationBasis.dim_max"]
        tracer.maxima["operators.TruncationBasis.dim_max"] = max(dim_max, args[0].dimension)


def _compress(tracer, args, result, error, duration):
    if result is not None:
        tracer.counters["operators.compress.entries"] += len(result.entries)


def _matmul(tracer, args, result, error, duration):
    if result is not None:
        tracer.counters["operators.matmul.entries_out"] += len(result.entries)


def _norm_estimate(tracer, args, result, error, duration):
    op = args[0]
    n = op.basis.dimension
    operators = sys.modules["ncdisc.operators"]
    # the branch rule of the package at this version; no limit means no dense branch
    if op.entries and n <= getattr(operators, "DENSE_LIMIT", -1):
        tracer.counters["operators.norm_estimate.dense_calls"] += 1
        # the compression, its conjugate and the Gram matrix, each n x n complex
        tracer.counters["operators.norm_estimate.dense_bytes_computed"] += 3 * 16 * n * n
    elif op.entries:
        tracer.counters["operators.norm_estimate.sparse_calls"] += 1
    tracer.counters[f"operators.norm_estimate.s.N{op.basis.cutoff}"] += duration


def _solve(tracer, args, result, error, duration):
    if error is not None and type(error).__name__ == "InconsistentDerivationError":
        tracer.counters["derivations.solve_inner_symbol.rejected"] += 1
    if result is not None:
        tracer.counters["derivations.solve_inner_symbol.out_terms"] += len(result)


def _coboundary(tracer, args, result, error, duration):
    tracer.counters["cohomology.coboundary.terms_in"] += len(args[0].table)
    if result is not None:
        tracer.counters["cohomology.coboundary.terms_out"] += len(result.table)


def _with_peak_memory(tracer: Tracer, fn: Callable) -> Callable:
    """Track the peak of memory allocated inside fn with tracemalloc."""

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            key = "operators.norm_estimate.peak_mb"
            tracer.maxima[key] = max(tracer.maxima[key], peak / 2**20)

    return measured


#: (module, attribute path, metric name, record spans, observer)
TARGETS: tuple[tuple[str, str, str, bool, Optional[Observer]], ...] = (
    ("ncdisc.words", "Word.__mul__", "words.Word.mul", False, None),
    ("ncdisc.words", "power_shift_check", "words.power_shift_check", False, None),
    ("ncdisc.words", "transport", "words.transport", False, None),
    ("ncdisc.words", "enumerate_words", "words.enumerate_words", True, None),
    ("ncdisc.series", "convolve", "series.convolve", True, _convolve),
    ("ncdisc.series", "conjugate_by", "series.conjugate_by", True, _conjugate_by),
    ("ncdisc.series", "adjoint_shift", "series.adjoint_shift", True, None),
    ("ncdisc.operators", "TruncationBasis.__init__", "operators.TruncationBasis", True, _basis),
    ("ncdisc.operators", "left_matrix", "operators.compress", True, _compress),
    ("ncdisc.operators", "right_matrix", "operators.compress", True, _compress),
    ("ncdisc.operators", "norm_estimate", "operators.norm_estimate", True, _norm_estimate),
    ("ncdisc.operators", "TruncatedOperator.__matmul__", "operators.matmul", True, _matmul),
    ("ncdisc.derivations", "solve_inner_symbol", "derivations.solve_inner_symbol", True, _solve),
    ("ncdisc.derivations", "inner_derivation", "derivations.inner_derivation", True, None),
    ("ncdisc.cohomology", "coboundary", "cohomology.coboundary", True, _coboundary),
    (
        "ncdisc.cohomology",
        "first_cocycle_violation",
        "cohomology.first_cocycle_violation",
        True,
        None,
    ),
    ("ncdisc.cohomology", "homotopy", "cohomology.homotopy", True, None),
    ("ncdisc.cli", "main", "cli.main", True, None),
    ("ncdisc.cli", "_cmd_verify", "cli.handler", True, None),
    ("ncdisc.cli", "_cmd_solve_derivation", "cli.handler", True, None),
    ("ncdisc.cli", "_cmd_trivialize_cocycle", "cli.handler", True, None),
)


def install(tracer: Tracer) -> tuple[list[tuple[Any, str, Any]], list[str]]:
    """Wrap every target; returns the bindings to restore and the targets
    the package no longer has."""
    restore: list[tuple[Any, str, Any]] = []
    missing: list[str] = []
    modules: dict[str, Any] = {}
    for module_name in dict.fromkeys(target[0] for target in TARGETS):
        try:
            modules[module_name] = importlib.import_module(module_name)
        except ImportError:
            pass
    loaded = [m for key, m in sys.modules.items() if key.split(".")[0] == "ncdisc"]
    for module_name, path, name, record, observe in TARGETS:
        owner: Any = modules.get(module_name)
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(f"{module_name}.{path}")
            continue
        wrapped = tracer.wrap(name, original, record, observe)
        if name == "operators.norm_estimate":
            wrapped = _with_peak_memory(tracer, wrapped)
        if owner_path:
            restore.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            continue
        for module in loaded:
            for key, value in list(vars(module).items()):
                if value is original:
                    restore.append((module, key, original))
                    setattr(module, key, wrapped)
    return restore, missing


def uninstall(restore: list[tuple[Any, str, Any]]) -> None:
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)
