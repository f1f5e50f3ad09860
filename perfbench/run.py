#!/usr/bin/env python3
"""Benchmark of the ncdisc package: three seeded closed-loop workloads.

Run from the root of a checkout; the package is imported from ``src/``::

    python3 perfbench/run.py --workload exact_solvers --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # each workload in its own process

A run sets the workload up ``SETUP_REPEATS`` times, then repeats passes
over its fixed job list until the next pass would overrun ``--seconds``
(at least one pass).  Every job's outcome is checked by an oracle.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines above
it print every metric with its unit and a ``record`` line holding the
full result and the reproducibility record.  The exit code is 1 when any
outcome was wrong, 2 when the package sources are missing, and 3 when a
traced run finds a function it should wrap, or a check it should time,
missing from the package.
"""

from __future__ import annotations

import argparse
import gc
import json
import marshal
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from tracing import LAYERS, Tracer, install, uninstall
from workloads import LADDER_CUTOFFS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("verify_suites", "norm_ladder", "exact_solvers")
#: A seed kept out of tuning: a claimed gain must also hold on it.
HELD_OUT_SEED = 7919
SETUP_REPEATS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: BLAS threads, at most nproc.  With one thread every job runs on the main
#: thread, so its thread CPU time is all the CPU it uses: the time a caller
#: waits on an otherwise idle machine.  (Process CPU time cannot serve:
#: while the speed probe's interval timer is armed, Linux updates it only
#: at scheduler ticks, 4 ms apart here.)
BLAS_THREADS = 1
#: Percentiles the tail rule chooses from.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
#: Samples that must lie beyond a reported percentile.
TAIL_SAMPLES = 10
#: Process CPU seconds between two speed probes.
PROBE_INTERVAL_S = 0.05
#: Thread CPU seconds ``probe_kernel`` takes at the reference speed.
PROBE_REFERENCE_S = 2e-4
#: Thread CPU seconds a ``BlasKernel`` call takes at the reference speed.
BLAS_REFERENCE_S = 3e-4
#: Fresh interpreters the import is timed in; the median counts.
IMPORT_CHILDREN = 7
#: Runs of the import kernel timed just before and just after the import.
IMPORT_KERNEL_REPEATS = 20
#: Thread CPU seconds one import kernel run takes at the reference speed.
IMPORT_REFERENCE_S = 6e-4


# --------------------------------------------------------------------------
# arithmetic (covered by the benchmark's tests)
# --------------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-th percentile."""
    rank = max(1, -(-n * q // 100))
    return n - int(rank)


def tail_percentile(n: int) -> Optional[float]:
    """The highest of ``PERCENTILES`` with at least ``TAIL_SAMPLES`` samples beyond it."""
    eligible = [q for q in PERCENTILES if samples_beyond(n, q) >= TAIL_SAMPLES]
    return max(eligible) if eligible else None


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# --------------------------------------------------------------------------
# measuring
# --------------------------------------------------------------------------


def probe_kernel() -> int:
    """A fixed piece of pure-Python work: tuple keys into a dict of complex values."""
    table: dict = {}
    base = (1, 2, 3)
    for i in range(600):
        key = base + (i & 7,)
        table[key] = table.get(key, 0j) + 1j
    return len(table)


class BlasKernel:
    """A fixed piece of BLAS work: one 96 x 96 complex matrix product, the
    kind of kernel the dense norm estimate spends its time in."""

    def __init__(self) -> None:
        import numpy as np

        self.matrix = np.ones((96, 96), dtype=complex)

    def __call__(self) -> None:
        self.matrix @ self.matrix


def probe_for(workload: str) -> "SpeedProbe":
    """The speed probe whose kernel does the kind of work the workload's jobs do.

    ``verify_suites`` and ``exact_solvers`` spend their time in the
    interpreter: across seeds, raw ``verify_suites`` CPU seconds spread 0.27
    in one hour, rescaled by ``probe_kernel`` 0.02.  ``norm_ladder`` spends it
    in numpy kernels, which a pure-Python probe does not track; over eight
    processes its median job spread 0.12 raw, 0.11 rescaled by
    ``probe_kernel`` and 0.06 rescaled by ``BlasKernel``."""
    if workload == "norm_ladder":
        return SpeedProbe(BlasKernel(), BLAS_REFERENCE_S)
    return SpeedProbe()


def _import_reference_source() -> str:
    """Fixed module source for the import kernel: functions and classes."""
    parts = []
    for i in range(40):
        parts.append(f"def f{i}(x, y={i}):\n    return [x * y + k for k in range({i})]\n")
        parts.append(f"class C{i}:\n    a = {i}\n\n    def m(self, z):\n        return {{z: self.a}}\n")
    return "".join(parts)


IMPORT_REFERENCE_CODE = marshal.dumps(compile(_import_reference_source(), "<reference>", "exec"))


def import_kernel() -> None:
    """What an import does once the file is read: unmarshal a code object
    and run the module body, which defines functions and builds classes."""
    exec(marshal.loads(IMPORT_REFERENCE_CODE), {"__name__": "reference"})


def timed_import() -> tuple[float, float]:
    """Import the package; returns its raw thread CPU seconds and those
    seconds at the reference speed, from ``import_kernel`` runs just before
    and just after it.  Meant for a fresh interpreter (``import_seconds``)."""

    def kernel_time() -> float:
        start = time.thread_time()
        for _ in range(IMPORT_KERNEL_REPEATS):
            import_kernel()
        return (time.thread_time() - start) / IMPORT_KERNEL_REPEATS

    before = kernel_time()
    start = time.thread_time()
    import ncdisc  # noqa: F401
    import ncdisc.cli  # noqa: F401  (the entry point; timed with the package)

    raw = time.thread_time() - start
    return raw, raw * IMPORT_REFERENCE_S / statistics.fmean((before, kernel_time()))


def import_seconds() -> list[tuple[float, float]]:
    """``timed_import`` in ``IMPORT_CHILDREN`` fresh interpreters, one after another."""
    code = (f"import json, sys; sys.path[:0] = {[HERE, SRC]!r}; import run; "
            "print(json.dumps(run.timed_import()))")
    samples = []
    for _ in range(IMPORT_CHILDREN):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"timed import failed: {proc.stderr.strip()}")
        samples.append(tuple(json.loads(proc.stdout.splitlines()[-1])))
    return samples


class SpeedProbe:
    """Samples how fast the host runs this process while the jobs run.

    On the shared 2-vCPU host the same pass took up to 1.8 times more CPU
    time from one minute to the next, in bursts from under a second to
    minutes.  Every ``PROBE_INTERVAL_S`` of process CPU time a SIGPROF
    handler runs ``kernel`` on the main thread, between two bytecodes of the
    job, and records its thread CPU time.  Thread CPU time spent over a
    stretch of work, less the probes' own time, is rescaled to the
    reference speed, at which ``kernel`` takes ``reference_s``, by ``scale``.
    """

    def __init__(self, kernel: Callable[[], Any] = probe_kernel, reference_s: float = PROBE_REFERENCE_S) -> None:
        self.kernel = kernel
        self.reference_s = reference_s
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.thread_time()
        self.kernel()
        elapsed = time.thread_time() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def scale(self, start: int, stop: Optional[int] = None) -> float:
        """Factor taking CPU time spent while samples ``start:stop`` were taken
        to the reference speed: the reference probe time over their probe
        times, averaged as rates because the probes are spread evenly over
        CPU time.  A stretch without probes takes the rate of the whole run."""
        window = [s for s in self.samples[start:stop] if s > 0]
        window = window or [s for s in self.samples if s > 0]
        if not window:
            return 1.0
        return self.reference_s * statistics.fmean(1 / s for s in window)

    def around(self, start: int, stop: int) -> float:
        """Factor for a job during which samples ``start:stop`` were taken:
        those samples plus the nearest one on either side, so that a job
        too short for a probe to land in takes the speed its neighbours
        saw, and every job is rescaled by the same rule."""
        return self.scale(max(start - 1, 0), stop + 1)

    def cpu(self, fn: Callable[[], Any]) -> tuple[Any, float, float]:
        """Run fn; returns its result, CPU seconds at the reference speed and
        raw CPU seconds, both without probe time."""
        since, spent, start = len(self.samples), self.spent, time.thread_time()
        result = fn()
        raw = time.thread_time() - start - (self.spent - spent)
        return result, raw * self.around(since, len(self.samples)), raw


@dataclass
class Tally:
    """Timings of one kind of pass (traced or untraced).  Per pass: CPU
    seconds summed over its jobs (at the reference speed where probed), the
    raw CPU and wall seconds, and the speed factor; per job: CPU seconds
    as summed."""

    cpus: list[float] = field(default_factory=list)
    raw_cpus: list[float] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    reports: list[tuple[int, str]] = field(default_factory=list)


@dataclass
class Outcomes:
    attempted: int = 0
    #: per pass, the indices of the jobs whose outcome was wrong
    wrong: list[set[int]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def failed(self, deferred: frozenset[int] = frozenset()) -> int:
        """Wrong outcomes, counting the jobs a deferred oracle rejected in
        every pass they ran in."""
        return sum(len(wrong | deferred) for wrong in self.wrong)


def one_pass(workload, tally: Tally, outcomes: Outcomes, probe: SpeedProbe, tracer=None) -> float:
    """Run every job once; returns the real time the pass took, checks included.
    Every job's CPU time is taken to the reference speed."""
    gc.collect()
    began = time.perf_counter()
    works: list[float] = []
    windows: list[tuple[int, int]] = []
    wall = 0.0
    wrong: set[int] = set()
    for index, job in enumerate(workload.jobs):
        raw = error = None
        first = len(probe.samples)
        start, start_cpu, spent = time.perf_counter(), time.thread_time(), probe.spent
        try:
            raw = job.run() if tracer is None else tracer.run("bench.job", job.run)
        except Exception as err:  # a crash is a wrong outcome, not the end of the run
            error = err
        works.append(time.thread_time() - start_cpu - (probe.spent - spent))
        wall += time.perf_counter() - start
        windows.append((first, len(probe.samples)))
        outcomes.attempted += 1
        if job.kind == "report-all" and raw is not None:
            tally.reports.append(raw)
        if error is not None or not job.check(raw):
            wrong.add(index)
            if len(outcomes.errors) < 5:
                outcomes.errors.append(f"{job.kind}: {error!r}" if error else f"{job.kind}: wrong")
    scaled = [
        work * probe.around(start, stop)
        for work, (start, stop) in zip(works, windows)
    ]
    outcomes.wrong.append(wrong)
    tally.cpus.append(sum(scaled))
    tally.raw_cpus.append(sum(works))
    tally.walls.append(wall)
    tally.scales.append(sum(scaled) / sum(works) if sum(works) else 1.0)
    tally.latencies.extend(scaled)
    return time.perf_counter() - began


def measure(workload, seconds: float, trace: bool, probe: SpeedProbe):
    """Passes until the next would overrun; in a traced run untraced and
    traced passes alternate, at least one of each."""
    untraced, traced, outcomes = Tally(), Tally(), Outcomes()
    tracer = Tracer(lambda: time.thread_time() - probe.spent) if trace else None
    last = {False: 0.0, True: 0.0}
    start = time.perf_counter()
    kind = False
    while True:
        done = len(untraced.cpus) + len(traced.cpus)
        elapsed = time.perf_counter() - start
        must = done == 0 or (trace and done == 1)
        if not must and elapsed + last[kind] > seconds:
            break
        if kind:
            restore, _ = install(tracer)
            try:
                last[kind] = one_pass(workload, traced, outcomes, probe, tracer)
            finally:
                uninstall(restore)
        else:
            last[kind] = one_pass(workload, untraced, outcomes, probe)
        if trace:
            kind = not kind
    return untraced, traced, outcomes, tracer


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------


def end_to_end(setup_s, tally: Tally, failed: int, attempted: int, peak_rss_mb, extras) -> tuple[dict, dict]:
    """Gated metrics (``BENCHMARK.json``) and the full set printed with them.

    A job's latency is its median over the passes, so that a job caught in
    a slow moment of the host does not move the percentiles."""
    fail_frac = failed / attempted
    jobs = len(tally.latencies) // len(tally.cpus)
    latencies = [statistics.median(tally.latencies[i::jobs]) for i in range(jobs)]
    n = len(latencies)
    gated = {
        "setup_s": (setup_s, "s"),
        "cpu_s": (statistics.median(tally.cpus), "s"),
        "p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": (1.0 - fail_frac, "frac"),
    }
    full = dict(gated)
    full["wall_s"] = (statistics.median(tally.walls), "s")
    full["fail_frac"] = (fail_frac, "frac")
    p90 = percentile(latencies, 90) * 1e3 if samples_beyond(n, 90) >= TAIL_SAMPLES else None
    full["p90_ms"] = (p90, "ms")
    tail = tail_percentile(n)
    full["tail_ms"] = (percentile(latencies, tail) * 1e3 if tail else None, "ms")
    full["tail_percentile"] = (tail, "%")
    full["jobs"] = (n, "count")
    if extras.get("norm_rel_err_max") is not None:
        full["norm_rel_err_max"] = (extras["norm_rel_err_max"], "1")
    return gated, full


#: Wrapped functions reported with ``.calls`` and ``.s``.
TIMED = (
    "words.power_shift_check",
    "words.enumerate_words",
    "words.transport",
    "words.Word.mul",
    "series.convolve",
    "series.conjugate_by",
    "series.adjoint_shift",
    "operators.compress",
    "operators.norm_estimate",
    "operators.matmul",
    "derivations.solve_inner_symbol",
    "derivations.inner_derivation",
    "cohomology.coboundary",
    "cohomology.first_cocycle_violation",
    "cohomology.homotopy",
)
#: Counters the tracer's observers add up, with their units.
COUNTERS = {
    "series.convolve.term_pairs": "count",
    "series.conjugate_by.terms_in": "count",
    "operators.compress.entries": "count",
    "operators.matmul.entries_out": "count",
    "operators.norm_estimate.dense_calls": "count",
    "operators.norm_estimate.sparse_calls": "count",
    "operators.norm_estimate.dense_bytes_computed": "B",
    "derivations.solve_inner_symbol.rejected": "count",
    "derivations.solve_inner_symbol.out_terms": "count",
    "cohomology.coboundary.terms_in": "count",
    "cohomology.coboundary.terms_out": "count",
    **{f"operators.norm_estimate.s.N{cutoff}": "s" for cutoff in LADDER_CUTOFFS},
}


#: The checks of ``report-all --alphabet 3``, reported as ``cli.check.<name>.s``.
CHECKS = (
    "cohomology.coboundary_squared",
    "cohomology.homotopy_roundtrip",
    "cohomology.h1_dimension",
    "derivations.inner_roundtrip",
    "derivations.screens",
    "derivations.stabilization",
    "derivations.normal_approx",
    "operators.isometry_relations",
    "operators.commutant",
    "operators.band_projections",
    "operators.compression_product",
    "operators.cesaro_contraction",
    "operators.cesaro_vector_bound",
    "operators.conjugation",
    "operators.filter_norm_bound",
    "operators.mobius_witness",
    "words.concat_laws",
    "words.cancellation",
    "words.order_invariance",
    "words.division_roundtrip",
    "words.min_staged_vs_scan",
    "words.power_shift_sweep",
    "words.primitive_root_commutation",
    "words.transport_roundtrip",
)


def per_layer(tracer, untraced: Tally, traced: Tally) -> dict:
    """Per traced pass; CPU seconds at the reference speed of the traced passes."""
    passes = len(traced.cpus)
    scale = statistics.fmean(traced.scales)

    def count(value: float) -> tuple[float, str]:
        return value / passes, "count"

    def seconds(value: float) -> tuple[float, str]:
        return value / passes * scale, "s"

    out: dict[str, tuple[float, str]] = {}
    for name in TIMED:
        out[f"{name}.calls"] = count(tracer.calls.get(name, 0))
        out[f"{name}.s"] = seconds(tracer.total.get(name, 0.0))
    for name in ("derivations.solve_inner_symbol", "cohomology.homotopy", "cli.handler"):
        out[f"{name}.self_s"] = seconds(tracer.self_time.get(name, 0.0))
    out["operators.TruncationBasis.s"] = seconds(tracer.total.get("operators.TruncationBasis", 0.0))
    out["operators.TruncationBasis.dim_max"] = (tracer.maxima.get("operators.TruncationBasis.dim_max", 0), "count")
    out["operators.norm_estimate.peak_mb"] = (tracer.maxima.get("operators.norm_estimate.peak_mb", 0.0), "MB")
    for key, unit in COUNTERS.items():
        value = tracer.counters.get(key, 0)
        out[key] = seconds(value) if unit == "s" else (value / passes, unit)
    pairs = tracer.counters.get("series.convolve.term_pairs", 0)
    convolve_s = tracer.total.get("series.convolve", 0.0) * scale
    out["series.convolve.ns_per_pair"] = (convolve_s / pairs * 1e9 if pairs else 0.0, "ns")

    # the report's own per-check wall timings, from the undisturbed passes
    times = check_times(untraced.reports or traced.reports)
    for name in CHECKS:
        out[f"cli.check.{name}.s"] = (times.get(name, 0.0), "s")

    layers = tracer.layer_self_time()
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = seconds(layers[layer])
    untraced_cpu = statistics.median(untraced.cpus)
    out["trace.cpu_s"] = seconds(sum(traced.raw_cpus))
    out["trace.untraced_cpu_s"] = (untraced_cpu, "s")
    out["trace.overhead_s"] = (statistics.median(traced.cpus) - untraced_cpu, "s")
    return out


def check_times(reports: list[tuple[int, str]]) -> dict[str, float]:
    """Mean ``elapsed_s`` of each check over the ``report-all`` outputs."""
    parsed = []
    for _, text in reports:
        try:
            parsed.append(json.loads(text))
        except json.JSONDecodeError:
            continue
    times: dict[str, float] = {}
    for report in parsed:
        for sub in report.get("reports", [report]):
            for check in sub.get("checks", ()):
                name = check["name"]
                times[name] = times.get(name, 0.0) + check["elapsed_s"] / len(parsed)
    return times


def reproducibility(seed: int, workload, seconds: float, passes: int, samples: int) -> dict:
    import numpy as np

    blas = None
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except Exception:  # older numpy has no dict mode; the record stays partial
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": nproc(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "jobs_per_pass": workload.counts,
        "passes": passes,
        "samples": samples,
    }


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------


def set_up(name: str, seed: int, workdir: str, probe: SpeedProbe):
    """Time the import in fresh interpreters, import the package here, and
    build the inputs ``SETUP_REPEATS`` times; returns the package, the last
    workload and the CPU seconds of each step at the reference speed.

    The import's time goes into reading, unmarshalling and running module
    bodies, which the probe kernel does not track, so ``timed_import``
    rescales it by ``import_kernel``.  The probe rescales input building."""
    imports = import_seconds()
    import ncdisc
    import ncdisc.cli  # noqa: F401

    generation = []
    for _ in range(SETUP_REPEATS):
        workload, seconds, _ = probe.cpu(lambda: WORKLOADS[name](seed, workdir))
        generation.append(seconds)
    setup = {
        "import_s": statistics.median(scaled for _, scaled in imports),
        "import_raw_s": [raw for raw, _ in imports],
        "import_scaled_s": [scaled for _, scaled in imports],
        "generation_s": generation,
    }
    return ncdisc, workload, setup


def run_workload(args) -> int:
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not os.path.isfile(os.path.join(SRC, "ncdisc", "__init__.py")):
        print(f"perfbench: no package sources at {SRC}/ncdisc; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        with probe_for(args.workload) as probe:
            ncdisc, workload, setup = set_up(args.workload, args.seed, workdir, probe)
            if not os.path.abspath(ncdisc.__file__).startswith(SRC + os.sep):
                print(f"perfbench: imported ncdisc from {ncdisc.__file__}, not {SRC}", file=sys.stderr)
                return 2
            setup_s = setup["import_s"] + statistics.median(setup["generation_s"])
            if args.trace:
                # a metric of a target the package no longer has would read 0,
                # which looks like a gain: the traced run refuses instead
                restore, missing = install(Tracer())
                uninstall(restore)
                if missing:
                    print(f"perfbench: trace targets not in the package: {missing}; "
                          "update TARGETS in perfbench/tracing.py", file=sys.stderr)
                    return 3
            untraced, traced, outcomes, tracer = measure(workload, args.seconds, args.trace, probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        deferred, extras = workload.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = outcomes.failed(deferred)
    if deferred:
        outcomes.errors.append(f"deferred oracles rejected jobs {sorted(deferred)}")
    correct = failed == 0

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "correct": correct,
        "errors": outcomes.errors,
        "passes": {
            name: {"cpu_s": t.cpus, "raw_cpu_s": t.raw_cpus, "wall_s": t.walls, "speed_scale": t.scales}
            for name, t in (("untraced", untraced), ("traced", traced))
        },
        "probes": len(probe.samples),
        "probe_kernel": getattr(probe.kernel, "__name__", type(probe.kernel).__name__),
        "setup": setup,
        "reproducibility": reproducibility(
            args.seed, workload, args.seconds, len(untraced.cpus) + len(traced.cpus),
            len(untraced.latencies) + len(traced.latencies),
        ),
    }
    if args.trace:
        if untraced.reports:
            absent = sorted(set(CHECKS) - set(check_times(untraced.reports)))
            if absent:
                print(f"perfbench: checks not in the report: {absent}; "
                      "update CHECKS in perfbench/run.py", file=sys.stderr)
                return 3
        metrics = per_layer(tracer, untraced, traced)
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl")
        record["spans"] = {"path": os.path.relpath(spans_path, ROOT), "count": tracer.write_spans(spans_path)}
        layer_sum = sum(metrics[f"layer.{layer}.self_s"][0] for layer in LAYERS)
        record["layer_self_s_sum"] = layer_sum
        shown = metrics
    else:
        metrics, shown = end_to_end(setup_s, untraced, failed, outcomes.attempted, peak_rss_mb, extras)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in shown.items()}

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{record['reproducibility']['passes']} passes, {outcomes.attempted} jobs, "
          f"{failed} wrong")
    for name, (value, unit) in shown.items():
        text = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:48s} {text:>14s} {unit}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": outcomes.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        lines = result.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("record ")))
        if result.stderr:
            print(result.stderr, file=sys.stderr, end="")
        if result.returncode != 0:
            print(f"{name}: exit code {result.returncode}")
            status = 1
    return status


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
