"""The three benchmark workloads: seeded inputs, timed jobs and outcome oracles.

Every workload is a closed loop with one caller: the next job starts only
after the previous one returned.  ``WORKLOADS[name](seed, workdir)`` is
the set-up: it makes the inputs from the seed, writes any input files,
and returns a ``Workload`` whose ``jobs`` are the timed calls into
``ncdisc``.  Each job carries an oracle that classifies its outcome
outside the timed region.  Oracles use their own word arithmetic (tuples
of generator indices) and numpy, never the package under test.

``ncdisc`` is imported inside the set-up functions so that this module,
and the outcome classifiers the tests exercise, import without it.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

Letters = tuple[int, ...]

#: Relative agreement required between a norm estimate and its SVD oracle.
#: The suites' own norm comparisons allow an additive 1e-6.
NORM_RTOL = 1e-6
#: Rounding slack on the rigorous upper bound ||phi||_1.
UPPER_RTOL = 1e-12
#: Largest basis dimension compared with a dense SVD oracle.
SVD_ORACLE_MAX_DIM = 1100


# --------------------------------------------------------------------------
# words as letter tuples, independent of the package under test
# --------------------------------------------------------------------------


def word_text(letters: Letters) -> str:
    """The interchange form: ``e`` or concatenated ``z<i>`` letters."""
    return "".join(f"z{a}" for a in letters) if letters else "e"


def parse_word(text: str) -> Letters:
    if text == "e":
        return ()
    return tuple(int(part) for part in text.split("z")[1:])


def tuple_order(key: tuple[Letters, ...]) -> tuple:
    """Graded-lexicographic order on word tuples: length first, then letters."""
    return tuple((len(w), w) for w in key)


def coboundary(table: dict[tuple[Letters, ...], complex]) -> dict:
    """Hochschild coboundary of a cochain with scalar coefficients.

    Both module actions multiply by the unit weight, so for an n-cochain
    the value at ``(w0, ..., wn)`` is ``phi(w1..wn)[w0 = e]`` plus the
    alternating sum over adjacent products plus ``(-1)^(n+1) phi(w0..)[wn = e]``.
    Written out term by term: each support tuple feeds every tuple that
    multiplies back to it.  Zero values are dropped.
    """
    out: dict[tuple[Letters, ...], complex] = {}

    def add(key: tuple[Letters, ...], value: complex) -> None:
        out[key] = out.get(key, 0) + value

    for key, c in table.items():
        n = len(key)
        add(((),) + key, c)
        for i, s in enumerate(key):
            sign = -1 if i % 2 == 0 else 1
            for cut in range(len(s) + 1):
                add(key[:i] + (s[:cut], s[cut:]) + key[i + 1 :], sign * c)
        add(key + ((),), c if (n + 1) % 2 == 0 else -c)
    return {k: v for k, v in out.items() if v != 0}


def cochain_json(arity: int, m: int, table: dict) -> dict:
    terms = [
        {"words": [word_text(w) for w in key], "re": c.real, "im": c.imag}
        for key, c in sorted(table.items(), key=lambda kv: tuple_order(kv[0]))
    ]
    return {"arity": arity, "alphabet": m, "terms": terms}


def series_json(m: int, table: dict[Letters, complex]) -> dict:
    terms = [
        {"word": word_text(w), "re": c.real, "im": c.imag}
        for w, c in sorted(table.items(), key=lambda kv: (len(kv[0]), kv[0]))
    ]
    return {"alphabet": m, "terms": terms}


def read_series_terms(data: dict) -> dict[Letters, complex]:
    return {
        parse_word(t["word"]): complex(t["re"], t.get("im", 0.0))
        for t in data.get("terms", ())
    }


def read_cochain_terms(data: dict) -> dict[tuple[Letters, ...], complex]:
    return {
        tuple(parse_word(w) for w in t["words"]): complex(t["re"], t.get("im", 0.0))
        for t in data.get("terms", ())
    }


def commutator_values(m: int, symbol: dict[Letters, complex]) -> dict[int, dict]:
    """Generator values of the inner derivation ``D(z_a) = z_a t - t z_a``."""
    values: dict[int, dict] = {}
    for a in range(m):
        value: dict[Letters, complex] = {}
        for w, c in symbol.items():
            value[(a,) + w] = value.get((a,) + w, 0) + c
            value[w + (a,)] = value.get(w + (a,), 0) - c
        values[a] = {w: c for w, c in value.items() if c != 0}
    return values


# --------------------------------------------------------------------------
# outcome classification (pure; covered by the benchmark's tests)
# --------------------------------------------------------------------------


def classify_report(code: int, report: Optional[dict]) -> bool:
    """A verification report is right when it exits 0 and every check passed."""
    if code != 0 or not report or report.get("passed") is not True:
        return False
    checks = [c for sub in report.get("reports", [report]) for c in sub.get("checks", ())]
    return bool(checks) and all(c.get("passed") is True for c in checks)


def classify_solved(
    code: int, recovered: Optional[dict[Letters, complex]], symbol: dict[Letters, complex]
) -> bool:
    """The recovered series equals the generating symbol without its unit term."""
    expected = {w: c for w, c in symbol.items() if w and c != 0}
    return code == 0 and recovered == expected


def classify_rejected(code: int, report: Optional[dict], expected_check: str) -> bool:
    """An inconsistent derivation exits 1 and names the screen that caught it."""
    if code != 1 or not report or report.get("passed") is not False:
        return False
    return (report.get("error") or {}).get("check") == expected_check


def classify_trivialized(
    code: int,
    psi: Optional[dict[tuple[Letters, ...], complex]],
    cocycle: dict[tuple[Letters, ...], complex],
) -> bool:
    """The returned cochain has coboundary exactly the input: zero residual."""
    return code == 0 and psi is not None and coboundary(psi) == cocycle


def classify_witness(
    code: int, report: Optional[dict], cochain: dict[tuple[Letters, ...], complex]
) -> bool:
    """A non-cocycle exits 1 with the least tuple where its coboundary is nonzero."""
    if code != 1 or not report or report.get("passed") is not False:
        return False
    boundary = coboundary(cochain)
    if not boundary:
        return False
    witness = (report.get("error") or {}).get("witness")
    expected = min(boundary, key=tuple_order)
    return witness == [word_text(w) for w in expected]


def classify_norm(
    estimate: float, upper: float, oracle: Optional[float] = None
) -> bool:
    """A norm estimate is right when it respects the rigorous bound ||phi||_1
    and, where a dense SVD oracle exists, agrees with it to ``NORM_RTOL``."""
    if not math.isfinite(estimate) or estimate < 0:
        return False
    if estimate > upper * (1 + UPPER_RTOL):
        return False
    return oracle is None or abs(estimate - oracle) <= NORM_RTOL * oracle


# --------------------------------------------------------------------------
# jobs and workloads
# --------------------------------------------------------------------------


@dataclass
class Job:
    """One timed call; ``check`` classifies what ``run`` returned, untimed."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def _nothing_deferred() -> tuple[frozenset[int], dict]:
    return frozenset(), {}


@dataclass
class Workload:
    name: str
    jobs: list[Job] = field(default_factory=list)
    #: input counts for the reproducibility record
    counts: dict[str, int] = field(default_factory=dict)
    #: oracles deferred until after timing: returns (indices of the jobs
    #: they reject, extra metrics)
    finish: Callable[[], tuple[frozenset[int], dict]] = _nothing_deferred


def _cli_call(argv: list[str]) -> tuple[int, str]:
    from ncdisc import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def _parse_report(text: str) -> Optional[dict]:
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


# -- verify_suites ---------------------------------------------------------


def verify_suites(seed: int, workdir: str) -> Workload:
    """``ncdisc report-all --alphabet 3`` in process; the seed drives its
    randomized checks."""
    argv = ["report-all", "--alphabet", "3", "--seed", str(seed)]

    def run() -> tuple[int, str]:
        return _cli_call(argv)

    def check(raw: tuple[int, str]) -> bool:
        code, text = raw
        return classify_report(code, _parse_report(text))

    return Workload("verify_suites", [Job("report-all", run, check)], {"report-all": 1})


# -- norm_ladder -----------------------------------------------------------

#: Cutoffs of the ladder over m=2: dimensions 127 ... 16383.  Cutoffs 6-10
#: take the dense branch (dimension <= 5000), 12 and 13 the sparse one.
#: Cutoff 11 (dimension 4095) is left out: one dense estimate there holds
#: 783 MB and took 12 s of CPU for the fastest-converging panel symbol,
#: more than a run can give three of them.
LADDER_CUTOFFS = (6, 7, 8, 9, 10, 12, 13)
LADDER_TOL = 1e-9
PANEL_SEED = 0
PANEL_SIZE = 3
MOBIUS_C = 0.9
MOBIUS_CUTOFF = 120


def panel_symbols(size: int = PANEL_SIZE) -> list[dict[Letters, complex]]:
    """The fixed symbol panel: 2-4 terms of degree <= 3 over m=2 with small
    Gaussian-integer weights, drawn once from ``PANEL_SEED`` without any
    selection.  How fast power iteration converges depends on the symbol's
    spectral gap and varied 5x between symbols at dimension 2047; a panel
    that changed with the seed would make run-to-run spread measure the
    draw rather than the program."""
    rng = random.Random(PANEL_SEED)
    panel = []
    while len(panel) < size:
        table: dict[Letters, complex] = {}
        for _ in range(rng.randint(2, 4)):
            w = tuple(rng.randrange(2) for _ in range(rng.randint(0, 3)))
            table[w] = table.get(w, 0) + complex(rng.randint(-3, 3), rng.randint(-3, 3))
        table = {w: c for w, c in table.items() if c != 0}
        if len(table) >= 2:
            panel.append(table)
    return panel


def seeded_transform(
    symbol: dict[Letters, complex], rng: random.Random
) -> dict[Letters, complex]:
    """A seeded copy of a panel symbol with the same singular values.

    A unimodular phase, a positive scale and a relabelling of the two
    generators change every coefficient and word, but multiply the
    compression by a scalar and conjugate it by a permutation: norms scale
    exactly, and the iteration from the all-ones start vector is the same.
    """
    phase = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    scale = rng.uniform(0.5, 2.0)
    swap = rng.random() < 0.5
    out = {}
    for w, c in symbol.items():
        key = tuple(1 - a for a in w) if swap else w
        out[key] = c * phase * scale
    return out


def dense_compression(symbol: dict[Letters, complex], m: int, cutoff: int):
    """Dense left-convolution compression built from the symbol alone.

    Rows and columns are graded-lex ranks: words shorter than n number
    ``(m^n - 1)/(m - 1)``, and within a length the rank is the base-m value.
    """
    import numpy as np

    def rank(w: Letters) -> int:
        offset = len(w) if m == 1 else (m ** len(w) - 1) // (m - 1)
        value = 0
        for a in w:
            value = value * m + a
        return offset + value

    n = cutoff + 1 if m == 1 else (m ** (cutoff + 1) - 1) // (m - 1)
    dense = np.zeros((n, n), dtype=complex)
    for length in range(cutoff + 1):
        for u in itertools.product(range(m), repeat=length):
            for w, c in symbol.items():
                if len(w) + length <= cutoff:
                    dense[rank(w + u), rank(u)] = c
    return dense


def norm_ladder(seed: int, workdir: str) -> Workload:
    """One job per panel symbol: ``left_matrix`` plus ``norm_estimate`` at
    every cutoff of the ladder; then the Mobius constant-removal witness at
    cutoff 120."""
    from ncdisc import Alphabet, Series
    from ncdisc import operators  # called through the module, where tracing wraps them

    rng = random.Random(seed)
    alphabet = Alphabet(2)
    symbols = [seeded_transform(s, rng) for s in panel_symbols()]
    series = [
        Series(alphabet, {alphabet.word(w): c for w, c in s.items()}) for s in symbols
    ]
    workload = Workload("norm_ladder")
    estimates: dict[tuple[int, int], float] = {}
    ratios: list[float] = []

    def ladder_job(index: int) -> Job:
        """One symbol up the whole ladder: the norms a user reads off to see
        where a truncated estimate settles."""
        phi = series[index]
        upper = sum(abs(c) for c in symbols[index].values())

        def run() -> list[float]:
            return [
                operators.norm_estimate(
                    operators.left_matrix(phi, operators.TruncationBasis(alphabet, cutoff)),
                    LADDER_TOL,
                )
                for cutoff in LADDER_CUTOFFS
            ]

        def check(found: list[float]) -> bool:
            for cutoff, estimate in zip(LADDER_CUTOFFS, found):
                estimates[(cutoff, index)] = estimate
            return len(found) == len(LADDER_CUTOFFS) and all(
                classify_norm(estimate, upper) for estimate in found
            )

        return Job("ladder", run, check)

    workload.jobs = [ladder_job(index) for index in range(len(series))]

    def mobius_run() -> float:
        return operators.mobius_witness_ratio(MOBIUS_C, MOBIUS_CUTOFF, LADDER_TOL)

    def mobius_check(ratio: float) -> bool:
        ratios.append(ratio)
        return math.isfinite(ratio)

    workload.jobs.append(Job("mobius", mobius_run, mobius_check))
    workload.counts = {"ladder": len(series), "rungs": len(LADDER_CUTOFFS), "mobius": 1}

    def finish() -> tuple[frozenset[int], dict]:
        import numpy as np

        wrong: set[int] = set()
        rel_errs = []
        for index, symbol in enumerate(symbols):
            previous = 0.0
            for cutoff in LADDER_CUTOFFS:
                estimate = estimates.get((cutoff, index))
                if estimate is None:
                    continue
                # compressions are nested, so the norm cannot drop as N grows
                if estimate < previous * (1 - NORM_RTOL):
                    wrong.add(index)
                previous = estimate
                if 2 ** (cutoff + 1) - 1 <= SVD_ORACLE_MAX_DIM:
                    oracle = float(np.linalg.norm(dense_compression(symbol, 2, cutoff), 2))
                    upper = sum(abs(c) for c in symbol.values())
                    if not classify_norm(estimate, upper, oracle):
                        wrong.add(index)
                    rel_errs.append(abs(estimate - oracle) / oracle)
        if ratios:
            coeffs = _mobius_coefficients(MOBIUS_C, MOBIUS_CUTOFF + 1)
            full = _toeplitz(coeffs)
            filtered = _toeplitz([0j] + coeffs[1:])
            oracle = float(np.linalg.norm(filtered, 2) / np.linalg.norm(full, 2))
            rel_errs.append(abs(ratios[0] - oracle) / oracle)
            if any(abs(r - oracle) > NORM_RTOL * oracle for r in ratios):
                wrong.add(len(symbols))
        return frozenset(wrong), {"norm_rel_err_max": max(rel_errs) if rel_errs else None}

    workload.finish = finish
    return workload


def _mobius_coefficients(c: float, count: int) -> list[complex]:
    """Taylor coefficients of ``(c - z) / (1 - c z)``, computed independently."""
    return [complex(c)] + [(c * c - 1) * c ** (n - 1) for n in range(1, count)]


def _toeplitz(coeffs: list[complex]):
    import numpy as np

    n = len(coeffs)
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(i + 1):
            out[i, j] = coeffs[i - j]
    return out


# -- exact_solvers ---------------------------------------------------------

#: (alphabet, degree, terms) classes of the consistent inner derivations.
DERIVATION_CLASSES = ((2, 4, 4), (3, 4, 4), (2, 8, 6), (3, 8, 6), (2, 12, 8), (3, 12, 8))
#: (alphabet, cochain arity, terms, word length) classes of the cochains
#: whose coboundaries are the cocycles: arity 1 and 2 give cocycles of
#: arity 2 and 3 with 1260, 490, 400 and 240 terms.
COCYCLE_CLASSES = ((2, 1, 140, 10), (3, 1, 70, 8), (2, 2, 40, 6), (3, 2, 30, 5))
#: Job counts per pass: 69% consistent derivations (enough of them that
#: the median job is steady from seed to seed), 17% screened rejects, 11%
#: cocycles and 3% non-cocycles.
SOLVE_JOBS = 144
REJECT_JOBS = 36
COCYCLE_JOBS = 24
NONCOCYCLE_JOBS = 6

_WEIGHTS = (-3, -2, -1, 1, 2, 3)


def _random_weight(rng: random.Random) -> complex:
    return complex(rng.choice(_WEIGHTS), rng.choice(_WEIGHTS + (0,)))


def _random_symbol(rng: random.Random, m: int, degree: int, terms: int) -> dict:
    """Distinct words with lengths spread over 1..degree (so the degree is
    exact), plus a weight at the unit that the solver must drop."""
    symbol: dict[Letters, complex] = {(): _random_weight(rng)}
    for j in range(terms):
        length = 1 + round(j * (degree - 1) / max(terms - 1, 1))
        while True:
            w = tuple(rng.randrange(m) for _ in range(length))
            if w not in symbol:
                break
        symbol[w] = _random_weight(rng)
    return symbol


def _random_cochain(
    rng: random.Random, m: int, arity: int, terms: int, length: int
) -> dict[tuple[Letters, ...], complex]:
    table: dict[tuple[Letters, ...], complex] = {}
    while len(table) < terms:
        key = tuple(tuple(rng.randrange(m) for _ in range(length)) for _ in range(arity))
        table[key] = _random_weight(rng)
    return table


def _derivation_json(m: int, values: dict[int, dict]) -> dict:
    return {"alphabet": m, "values": {str(a): series_json(m, v) for a, v in values.items()}}


def exact_solvers(seed: int, workdir: str) -> Workload:
    """``solve-derivation`` and ``trivialize-cocycle`` through ``cli.main`` on
    JSON files written here, before any timing."""
    rng = random.Random(seed)
    os.makedirs(workdir, exist_ok=True)
    workload = Workload("exact_solvers")
    specs: list[tuple[str, dict, Callable]] = []

    for i in range(SOLVE_JOBS):
        m, degree, terms = DERIVATION_CLASSES[i % len(DERIVATION_CLASSES)]
        symbol = _random_symbol(rng, m, degree, terms)
        data = _derivation_json(m, commutator_values(m, symbol))
        specs.append(("solve", data, _solved_check(symbol)))

    for i in range(REJECT_JOBS):
        m = 2 + i % 2
        symbol = _random_symbol(rng, m, 8, 6)
        values = commutator_values(m, symbol)
        weight = _random_weight(rng)
        if i % 4 < 2:
            # weight on a power of z_a commutes with z_a: the first screen
            a = rng.randrange(m)
            w = (a,) * rng.randint(0, 3)
            values[a][w] = values[a].get(w, 0) + weight
            expected = "commuting_support"
        else:
            # z1 z1 ... z0 is neither a power of z1 nor z1 against a power of
            # z0: caught by the pair screen after the full solve at z0
            tail = tuple(rng.randrange(m) for _ in range(rng.randint(0, 3)))
            w = (1, 1) + tail + (0,)
            values[1][w] = values[1].get(w, 0) + weight
            expected = "pair_structure"
        values = {a: {w: c for w, c in v.items() if c != 0} for a, v in values.items()}
        specs.append(("reject", _derivation_json(m, values), _rejected_check(expected)))

    cocycles = []
    for i in range(COCYCLE_JOBS + NONCOCYCLE_JOBS):
        m, arity, terms, length = COCYCLE_CLASSES[i % len(COCYCLE_CLASSES)]
        cocycle = coboundary(_random_cochain(rng, m, arity, terms, length))
        cocycles.append((m, arity + 1, cocycle))
    for m, arity, cocycle in cocycles[:COCYCLE_JOBS]:
        data = cochain_json(arity, m, cocycle)
        specs.append(("cocycle", data, _trivialized_check(cocycle)))
    for m, arity, cocycle in cocycles[COCYCLE_JOBS:]:
        while True:
            key = tuple(
                tuple(rng.randrange(m) for _ in range(rng.randint(0, 3)))
                for _ in range(arity)
            )
            candidate = dict(cocycle)
            candidate[key] = candidate.get(key, 0) + _random_weight(rng)
            candidate = {k: v for k, v in candidate.items() if v != 0}
            if coboundary(candidate):
                break
        data = cochain_json(arity, m, candidate)
        specs.append(("noncocycle", data, _witness_check(candidate)))

    for index, (kind, data, check) in enumerate(specs):
        source = os.path.join(workdir, f"{index:04d}-{kind}.json")
        with open(source, "w") as handle:
            json.dump(data, handle)
        command = "solve-derivation" if kind in ("solve", "reject") else "trivialize-cocycle"
        workload.jobs.append(Job(kind, _handler_call([command, "--in", source]), check))
        workload.counts[kind] = workload.counts.get(kind, 0) + 1
    return workload


def _handler_call(argv: list[str]) -> Callable[[], tuple[int, str]]:
    """A handler call without ``--out``: the result comes back on stdout,
    so a job writes no file."""

    def run() -> tuple[int, str]:
        return _cli_call(argv)

    return run


def _solved_check(symbol: dict) -> Callable:
    def check(raw) -> bool:
        code, text = raw
        result = _parse_report(text) or {}
        recovered = read_series_terms(result["series"]) if "series" in result else None
        return classify_solved(code, recovered, symbol)

    return check


def _rejected_check(expected: str) -> Callable:
    def check(raw) -> bool:
        code, text = raw
        return classify_rejected(code, _parse_report(text), expected)

    return check


def _trivialized_check(cocycle: dict) -> Callable:
    verified: dict[str, bool] = {}

    def check(raw) -> bool:
        code, text = raw
        # every pass returns the same bytes; verify each distinct output once
        if text not in verified:
            result = _parse_report(text) or {}
            psi = read_cochain_terms(result["cochain"]) if "cochain" in result else None
            verified[text] = classify_trivialized(code, psi, cocycle)
        return code == 0 and verified[text]

    return check


def _witness_check(cochain: dict) -> Callable:
    def check(raw) -> bool:
        code, text = raw
        return classify_witness(code, _parse_report(text), cochain)

    return check


WORKLOADS: dict[str, Callable[[int, str], Workload]] = {
    "verify_suites": verify_suites,
    "norm_ladder": norm_ladder,
    "exact_solvers": exact_solvers,
}
