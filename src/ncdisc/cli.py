"""Batch driver exposing the verification suites and solvers as subcommands.

Subcommands: ``verify-words``, ``verify-operators``, ``solve-derivation``,
``trivialize-cocycle``, ``report-all``.  Reports are machine readable
(JSON, optionally CSV), deterministic for a fixed configuration up to the
timing fields, and every failing check carries a replayable payload.

A check's suite parameters live where it is registered: ``_register(name,
params)`` stores the check in ``CHECKS`` and ``params``, a function of the
``RunConfig``, in ``PARAMS``.  The suite is the prefix of the name, and
a suite runs its checks in registration order.  The two solvers share
``_run_solver``, which owns reading ``--in``, the exit codes and the output.

Exit codes: 0 all checks passed, 1 verification failure, 2 bad input or
configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Optional, Sequence, TextIO

import numpy as np

from .cohomology import (
    Cochain,
    NonCocycleError,
    _CutCodes,
    _read_codes,
    coboundary,
    generator_cocycles,
    homotopy,
    homotopy_on_series,
    is_cocycle,
    one_cocycle_dimension,
    trivialize,
)
from .derivations import (
    GeneratorDerivation,
    InconsistentDerivationError,
    _solve_with_deviations,
    conjugate_vanishing_index,
    commuting_support_vanishes,
    inner_derivation,
    normal_approx_check,
    short_support_vanishes,
    solve_inner_symbol,
    stabilized_conjugate_sum,
)
from .operators import (
    PowerIterationError,
    TruncatedOperator,
    TruncationBasis,
    basis_dimension,
    cesaro_op,
    commutant_check,
    conjugation_check,
    degree_band,
    isometry_relations,
    left_matrix,
    max_column_deviation,
    mobius_witness_ratio,
    norm_estimate,
    q_projection,
    write_csv,
)
from .series import (
    Series,
    _json_typed,
    conjugate_by,
    convolve,
    first_letter_part,
    max_coeff_diff,
)
from .words import (
    Alphabet,
    Word,
    _index,
    enumerate_words,
    min_word,
    power_shift_check,
    transport,
)

SCHEMA_VERSION = 1
DEFAULT_TRIALS = 10_000
#: Smallest cutoff the operator suite's specs fit: the conjugation check
#: sandwiches by a shift of length one on each side.
MIN_OPERATOR_CUTOFF = 2
#: Cutoff of the operator checks that estimate many norms of random operators.
NORM_CUTOFF = 4
#: Most words of the basis at ``min(cutoff, NORM_CUTOFF)`` an operator suite
#: may hold; the commutant check's sweep of about 4m^3 pairs is bounded by it too.
MAX_NORM_WORDS = 2048


@dataclass
class RunConfig:
    """Shared knobs for the verification suites."""

    alphabet: int = 2
    max_len: int = 6
    cutoff: int = 5
    seed: int = 42
    tol: float = 1e-9
    out: Optional[str] = None

    def validate(self) -> None:
        if self.alphabet < 1:
            raise ValueError("alphabet size must be at least 1")
        if self.max_len < 0:
            raise ValueError("max word length must be nonnegative")
        if self.cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tolerance must be positive and finite")


@dataclass
class CheckResult:
    name: str
    passed: bool
    params: dict
    counterexample: Optional[dict]
    elapsed_s: float


@dataclass
class Report:
    suite: str
    passed: bool
    config: dict
    checks: list[CheckResult] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "suite": self.suite,
            "passed": self.passed,
            "config": self.config,
            "checks": [asdict(c) for c in self.checks],
        }


CheckFn = Callable[[dict], tuple[bool, Optional[dict]]]
ParamsFn = Callable[[RunConfig], dict]
CHECKS: dict[str, CheckFn] = {}
#: Each check's suite parameters, drawn from the run configuration.
PARAMS: dict[str, ParamsFn] = {}


def _register(name: str, params: ParamsFn):
    """Register a check with its suite parameters."""

    def decorate(fn: CheckFn) -> CheckFn:
        CHECKS[name] = fn
        PARAMS[name] = params
        return fn

    return decorate


# --------------------------------------------------------------------------
# randomized input generators (stdlib rng for cross-platform determinism)
# --------------------------------------------------------------------------


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """A uniform draw from ``range(n)`` for ``n >= 1``.

    The rule of CPython's ``Random._randbelow_with_getrandbits``: draw
    ``n.bit_length()`` bits and redraw while the result is ``>= n``.  So
    ``randrange(n)`` is ``_below(rng.getrandbits, n)`` and ``randint(a, b)``
    is ``a + _below(rng.getrandbits, b - a + 1)``, call for call on the same
    bit stream, without the argument checks that ``randrange`` repeats on
    every draw.  Every integer the checks draw goes through here.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _random_word(rng: random.Random, alphabet: Alphabet, max_len: int, min_len: int = 0) -> Word:
    """A word with a uniform length in ``min_len..max_len`` and uniform letters.

    The draws are those of ``rng.randint(min_len, max_len)`` and then one
    ``rng.randrange(alphabet.size)`` per letter (see ``_below``), so words
    and the generator state after them are those of the stdlib calls.  The
    bounds are checked once, before the first draw: a non-integer bound or
    an empty range raises ``ValueError`` (``_below`` of 0 would redraw for
    ever).  The letters are in range by construction, so the word is built
    through the trusted ``Word._of``.
    """
    low = _index(min_len, "min_len")
    span = _index(max_len, "max_len") - low + 1
    if span < 1:
        raise ValueError(f"empty length range {min_len}..{max_len}")
    getrandbits = rng.getrandbits
    size = alphabet.size
    n = low + _below(getrandbits, span)
    return Word._of(alphabet, tuple([_below(getrandbits, size) for _ in range(n)]))


def _random_coefficient(getrandbits: Callable[[int], int]) -> complex:
    """A Gaussian integer with both parts uniform in ``-3..3``."""
    return complex(_below(getrandbits, 7) - 3, _below(getrandbits, 7) - 3)


def _random_series(
    rng: random.Random,
    alphabet: Alphabet,
    max_len: int,
    max_terms: int = 5,
    min_len: int = 0,
) -> Series:
    getrandbits = rng.getrandbits
    terms = [
        (_random_word(rng, alphabet, max_len, min_len), _random_coefficient(getrandbits))
        for _ in range(1 + _below(getrandbits, max_terms))
    ]
    return Series._from_valid((alphabet,), terms)


def _random_operator(basis: TruncationBasis, seed: int) -> TruncatedOperator:
    """A random operator with one nonzero entry in each column per row length.

    For each column in rank order and each row length 0..cutoff, a row drawn
    uniformly from that length's rank block gets a nonzero
    ``_random_coefficient`` (a zero is redrawn).  So every band of every
    column is filled, with ``dimension * (cutoff + 1)`` entries.
    """
    getrandbits = random.Random(seed).getrandbits
    offsets = basis.offsets().tolist()
    blocks = [(start, end - start) for start, end in zip(offsets, offsets[1:])]
    rows, vals = [], []
    for _ in range(basis.dimension):
        for start, size in blocks:
            rows.append(start + _below(getrandbits, size))
            value = _random_coefficient(getrandbits)
            while not value:
                value = _random_coefficient(getrandbits)
            vals.append(value)
    cols = np.repeat(np.arange(basis.dimension), len(blocks))
    return TruncatedOperator._from_coo(basis, rows, cols, vals)


# --------------------------------------------------------------------------
# word checks
# --------------------------------------------------------------------------


@_register("words.concat_laws", lambda c: {"m": c.alphabet, "len": min(c.max_len, 2)})
def _check_concat_laws(params: dict) -> tuple[bool, Optional[dict]]:
    alphabet = Alphabet(params["m"])
    words = enumerate_words(alphabet, params["len"])
    e = alphabet.unit()
    for u in words:
        if e * u != u or u * e != u:
            return False, {"u": str(u)}
        for v in words:
            if len((u * v)) != len(u) + len(v):
                return False, {"u": str(u), "v": str(v)}
            for w in words:
                if (u * v) * w != u * (v * w):
                    return False, {"u": str(u), "v": str(v), "w": str(w)}
    return True, None


@_register(
    "words.cancellation",
    lambda c: {"m": c.alphabet, "len": min(c.max_len, 5 if c.alphabet <= 2 else 3)},
)
def _check_cancellation(params: dict) -> tuple[bool, Optional[dict]]:
    alphabet = Alphabet(params["m"])
    words = enumerate_words(alphabet, params["len"])
    for u in words:
        products = {u * v for v in words}
        if len(products) != len(words):
            return False, {"u": str(u)}
        for v in words:
            w = u * v
            if w.strip_prefix(u) != v or w.strip_suffix(v) != u:
                return False, {"u": str(u), "v": str(v)}
    return True, None


@_register(
    "words.order_invariance",
    lambda c: {"m": c.alphabet, "max_len": c.max_len, "seed": c.seed, "trials": DEFAULT_TRIALS},
)
def _check_order_invariance(params: dict) -> tuple[bool, Optional[dict]]:
    alphabet = Alphabet(params["m"])
    rng = random.Random(params["seed"])
    for _ in range(params["trials"]):
        u = _random_word(rng, alphabet, params["max_len"])
        v = _random_word(rng, alphabet, params["max_len"])
        w = _random_word(rng, alphabet, params["max_len"])
        if sum([u < v, u == v, u > v]) != 1:
            return False, {"u": str(u), "v": str(v)}
        if u < v and not (w * u < w * v and u * w < v * w):
            return False, {"u": str(u), "v": str(v), "w": str(w)}
    return True, None


@_register(
    "words.division_roundtrip",
    lambda c: {
        "m": c.alphabet, "max_len": c.max_len, "seed": c.seed + 1, "trials": DEFAULT_TRIALS
    },
)
def _check_division_roundtrip(params: dict) -> tuple[bool, Optional[dict]]:
    alphabet = Alphabet(params["m"])
    rng = random.Random(params["seed"])
    for _ in range(params["trials"]):
        u = _random_word(rng, alphabet, params["max_len"])
        v = _random_word(rng, alphabet, params["max_len"])
        w = u * v
        if w.strip_prefix(u) != v or w.strip_suffix(v) != u:
            return False, {"u": str(u), "v": str(v)}
        x = _random_word(rng, alphabet, params["max_len"])
        rest = w.strip_prefix(x)
        if rest is not None and x * rest != w:
            return False, {"w": str(w), "x": str(x)}
    return True, None


@_register(
    "words.min_staged_vs_scan",
    lambda c: {
        "m": c.alphabet, "max_len": c.max_len, "seed": c.seed + 2, "sets": 100, "set_size": 100
    },
)
def _check_min_staged(params: dict) -> tuple[bool, Optional[dict]]:
    alphabet = Alphabet(params["m"])
    rng = random.Random(params["seed"])
    for _ in range(params["sets"]):
        sample = {
            _random_word(rng, alphabet, params["max_len"])
            for _ in range(params["set_size"])
        }
        staged = min_word(sample)
        scanned = min(sample)
        if staged != scanned:
            return False, {"set": sorted(str(w) for w in sample)}
    return True, None


@_register("words.power_shift_sweep", lambda c: {"m": c.alphabet, "w_max": 3, "u_max": 4})
def _check_power_shift_sweep(params: dict) -> tuple[bool, Optional[dict]]:
    alphabet = Alphabet(params["m"])
    bases = [w for w in enumerate_words(alphabet, params["w_max"]) if not w.is_unit()]
    candidates = enumerate_words(alphabet, params["u_max"])
    for w in bases:
        for u in candidates:
            k_min = math.ceil(len(u) / len(w)) + 1
            for k in (k_min, k_min + 1):
                # both sides of v w^k = w^k u have length |u| + k|w|, so the
                # hypothesis forces v to be the |u|-prefix of w^k u; every
                # other v of length |u| passes vacuously
                v = Word._of(alphabet, (w**k * u).letters[: len(u)])
                if not power_shift_check(w, u, v, k):
                    return False, {"w": str(w), "u": str(u), "v": str(v), "k": k}
    return True, None


@_register(
    "words.primitive_root_commutation",
    lambda c: {"m": c.alphabet, "max_len": min(c.max_len, 6 if c.alphabet <= 2 else 4)},
)
def _check_primitive_root(params: dict) -> tuple[bool, Optional[dict]]:
    alphabet = Alphabet(params["m"])
    words = [w for w in enumerate_words(alphabet, params["max_len"]) if not w.is_unit()]
    roots = {w: w.primitive_root()[0] for w in words}
    for u in words:
        for w in words:
            if u.commutes_with(w) != (roots[u] == roots[w]):
                return False, {"u": str(u), "w": str(w)}
    return True, None


@_register(
    "words.transport_roundtrip",
    lambda c: {
        "m": c.alphabet, "max_len": c.max_len, "seed": c.seed + 3, "trials": DEFAULT_TRIALS // 10
    },
)
def _check_transport(params: dict) -> tuple[bool, Optional[dict]]:
    alphabet = Alphabet(params["m"])
    rng = random.Random(params["seed"])
    for _ in range(params["trials"]):
        w = _random_word(rng, alphabet, params["max_len"])
        u = _random_word(rng, alphabet, params["max_len"])
        v = transport(w, u)
        if v is not None and u * w != w * v:
            return False, {"w": str(w), "u": str(u)}
        # a commuting pair always transports to itself
        root = _random_word(rng, alphabet, 3)
        if not root.is_unit():
            p = root ** (1 + _below(rng.getrandbits, 3))
            q = root ** (1 + _below(rng.getrandbits, 3))
            if transport(p, q) != q:
                return False, {"w": str(p), "u": str(q)}
    return True, None


# --------------------------------------------------------------------------
# operator checks
# --------------------------------------------------------------------------


@_register("operators.isometry_relations", lambda c: {"m": c.alphabet, "cutoff": c.cutoff})
def _check_isometry(params: dict) -> tuple[bool, Optional[dict]]:
    basis = TruncationBasis(Alphabet(params["m"]), params["cutoff"])
    deviations = isometry_relations(basis)
    if all(d == 0.0 for d in deviations.values()):
        return True, None
    return False, {"deviations": deviations}


@_register(
    "operators.commutant",
    lambda c: {"m": c.alphabet, "cutoff": c.cutoff, "pair_max": min(3, c.cutoff)},
)
def _check_commutant(params: dict) -> tuple[bool, Optional[dict]]:
    alphabet = Alphabet(params["m"])
    basis = TruncationBasis(alphabet, params["cutoff"])
    pairs = enumerate_words(alphabet, params["pair_max"])
    for u in pairs:
        for v in pairs:
            if len(u) + len(v) > params["pair_max"]:
                continue
            if not commutant_check(u, v, basis):
                return False, {"u": str(u), "v": str(v)}
    return True, None


@_register(
    "operators.band_projections",
    lambda c: {
        "m": c.alphabet,
        "cutoff": min(c.cutoff, NORM_CUTOFF),
        "seed": c.seed,
        "trials": 3,
        "tol": c.tol,
    },
)
def _check_band_projections(params: dict) -> tuple[bool, Optional[dict]]:
    basis = TruncationBasis(Alphabet(params["m"]), params["cutoff"])
    cutoff = params["cutoff"]
    for trial in range(params["trials"]):
        op = _random_operator(basis, params["seed"] + trial)
        reference = norm_estimate(op, params["tol"])
        for j in range(-cutoff, cutoff + 1):
            banded = degree_band(op, j)
            if max_column_deviation(degree_band(banded, j), banded) != 0.0:
                return False, {"trial": trial, "j": j, "reason": "not idempotent"}
            other = j + 1 if j < cutoff else j - 1
            if degree_band(banded, other).vals.size:
                return False, {"trial": trial, "j": j, "reason": "bands overlap"}
            # band filter equals the explicit projection sandwich sum
            summed = TruncatedOperator.zero(basis)
            for k in range(max(0, j), cutoff + 1):
                if 0 <= k - j <= cutoff:
                    summed = summed + q_projection(basis, k) @ op @ q_projection(basis, k - j)
            if max_column_deviation(banded, summed) != 0.0:
                return False, {"trial": trial, "j": j, "reason": "projection sum differs"}
            if banded.vals.size and norm_estimate(banded, params["tol"]) > reference + 1e-6:
                return False, {"trial": trial, "j": j, "reason": "band not contractive"}
    return True, None


@_register(
    "operators.compression_product",
    lambda c: {"m": c.alphabet, "cutoff": c.cutoff, "deg": 2, "seed": c.seed + 1, "trials": 50},
)
def _check_compression_product(params: dict) -> tuple[bool, Optional[dict]]:
    alphabet = Alphabet(params["m"])
    basis = TruncationBasis(alphabet, params["cutoff"])
    rng = random.Random(params["seed"])
    for trial in range(params["trials"]):
        phi = _random_series(rng, alphabet, params["deg"])
        psi = _random_series(rng, alphabet, params["deg"])
        product = left_matrix(phi, basis) @ left_matrix(psi, basis)
        direct = left_matrix(convolve(phi, psi), basis)
        degrees = int(max(phi.degree(), 0) + max(psi.degree(), 0))
        # Gaussian-integer coefficients in [-3, 3]: every product and sum of
        # them is a small Gaussian integer, exact in floats, so both sides agree exactly
        if max_column_deviation(product, direct, basis.cutoff - degrees) != 0.0:
            return False, {"trial": trial, "phi": str(phi), "psi": str(psi)}
        if degrees <= basis.cutoff:
            acted = left_matrix(phi, basis).apply(psi)
            if max_coeff_diff(acted, convolve(phi, psi)) != 0.0:
                return False, {"trial": trial, "reason": "matrix action differs"}
    return True, None


@_register(
    "operators.cesaro_contraction",
    lambda c: {
        "m": c.alphabet,
        "cutoff": min(c.cutoff, NORM_CUTOFF),
        "seed": c.seed + 2,
        "trials": 20,
        "tol": c.tol,
    },
)
def _check_cesaro_contraction(params: dict) -> tuple[bool, Optional[dict]]:
    basis = TruncationBasis(Alphabet(params["m"]), params["cutoff"])
    for trial in range(params["trials"]):
        op = _random_operator(basis, params["seed"] + trial)
        k = 1 + trial % 5
        smoothed = norm_estimate(cesaro_op(op, k), params["tol"])
        reference = norm_estimate(op, params["tol"])
        if smoothed > reference + 1e-6:
            return False, {"trial": trial, "k": k, "smoothed": smoothed, "ref": reference}
    return True, None


@_register(
    "operators.cesaro_vector_bound",
    lambda c: {"m": c.alphabet, "cutoff": c.cutoff, "seed": c.seed + 3, "trials": 50},
)
def _check_cesaro_vector(params: dict) -> tuple[bool, Optional[dict]]:
    alphabet = Alphabet(params["m"])
    basis = TruncationBasis(alphabet, params["cutoff"])
    rng = random.Random(params["seed"])
    unit = Series.unit(alphabet)
    for trial in range(params["trials"]):
        phi = _random_series(rng, alphabet, params["cutoff"])
        if phi.is_zero():
            continue
        op = left_matrix(phi, basis)
        for k in (2, 4, 8, 16, 32):
            drift = (cesaro_op(op, k).apply(unit) - phi).l2_norm()
            bound = (phi.degree() / k) * phi.l2_norm()
            if drift > bound + 1e-12:
                return False, {"trial": trial, "k": k, "phi": str(phi)}
    return True, None


@_register(
    "operators.conjugation",
    # a word of length w_max on each side of a degree-deg series fits the cutoff
    lambda c: {
        "m": c.alphabet,
        "cutoff": c.cutoff,
        "w_max": max(c.cutoff - 3, 2) // 2,
        "deg": min(3, c.cutoff - 2),
        "seed": c.seed + 4,
        "trials": 25,
    },
)
def _check_conjugation(params: dict) -> tuple[bool, Optional[dict]]:
    alphabet = Alphabet(params["m"])
    basis = TruncationBasis(alphabet, params["cutoff"])
    rng = random.Random(params["seed"])
    for trial in range(params["trials"]):
        w = _random_word(rng, alphabet, params["w_max"])
        phi = _random_series(rng, alphabet, params["deg"])
        if not conjugation_check(w, phi, basis):
            return False, {"trial": trial, "w": str(w), "phi": str(phi)}
    return True, None


@_register(
    "operators.filter_norm_bound",
    lambda c: {
        "m": c.alphabet,
        "cutoff": min(c.cutoff, NORM_CUTOFF),
        "seed": c.seed + 5,
        "trials": 25,
        "tol": c.tol,
    },
)
def _check_filter_norm(params: dict) -> tuple[bool, Optional[dict]]:
    alphabet = Alphabet(params["m"])
    basis = TruncationBasis(alphabet, params["cutoff"])
    rng = random.Random(params["seed"])
    for trial in range(params["trials"]):
        phi = _random_series(rng, alphabet, params["cutoff"])
        reference = norm_estimate(left_matrix(phi, basis), params["tol"])
        for a in alphabet.letters():
            filtered = norm_estimate(
                left_matrix(first_letter_part(phi, a), basis), params["tol"]
            )
            if filtered > 2 * reference + 1e-6:
                return False, {"trial": trial, "letter": a, "phi": str(phi)}
    return True, None


@_register(
    "operators.mobius_witness",
    # the truncated ratio reaches 1.8 only past cutoff ~80 (limit 1.9)
    lambda c: {"c": 0.9, "cutoff": 120, "lo": 1.8, "tol": c.tol},
)
def _check_mobius_witness(params: dict) -> tuple[bool, Optional[dict]]:
    ratio = mobius_witness_ratio(params["c"], params["cutoff"], params["tol"])
    if params["lo"] <= ratio <= 2.0 + 1e-6:
        return True, None
    return False, {"ratio": ratio}


# --------------------------------------------------------------------------
# derivation checks
# --------------------------------------------------------------------------


@_register(
    "derivations.inner_roundtrip",
    lambda c: {"sizes": [2, 3], "deg": 3, "seed": c.seed, "trials": 25},
)
def _check_inner_roundtrip(params: dict) -> tuple[bool, Optional[dict]]:
    rng = random.Random(params["seed"])
    for trial in range(params["trials"]):
        for m in params["sizes"]:
            alphabet = Alphabet(m)
            symbol = _random_series(rng, alphabet, params["deg"], max_terms=4, min_len=1)
            derivation = GeneratorDerivation.inner(symbol)
            recovered = solve_inner_symbol(derivation)
            if recovered != symbol:
                return False, {"trial": trial, "m": m, "symbol": str(symbol)}
            for a in alphabet.letters():
                produced = inner_derivation(
                    recovered, Series.basis(alphabet.generator(a))
                )
                if produced != derivation.value(a):
                    return False, {"trial": trial, "m": m, "generator": a}
    return True, None


@_register(
    "derivations.screens", lambda c: {"m": c.alphabet, "deg": 3, "seed": c.seed + 1, "trials": 10}
)
def _check_screens(params: dict) -> tuple[bool, Optional[dict]]:
    rng = random.Random(params["seed"])
    alphabet = Alphabet(params["m"])
    probe_words = [
        w for w in enumerate_words(alphabet, 3) if not w.is_unit()
    ]
    for trial in range(params["trials"]):
        symbol = _random_series(rng, alphabet, params["deg"], max_terms=4, min_len=1)
        derivation = GeneratorDerivation.inner(symbol)
        for w in probe_words:
            if not commuting_support_vanishes(derivation, w):
                return False, {"trial": trial, "w": str(w), "screen": "commuting"}
            if not short_support_vanishes(derivation, w):
                return False, {"trial": trial, "w": str(w), "screen": "short"}
    poisoned = GeneratorDerivation(alphabet, {0: Series.unit(alphabet)})
    try:
        solve_inner_symbol(poisoned)
    except InconsistentDerivationError as err:
        if err.check != "commuting_support":
            return False, {"reason": f"wrong screen {err.check}"}
    else:
        return False, {"reason": "unit-weight value was accepted"}
    return True, None


@_register(
    "derivations.stabilization",
    lambda c: {"m": c.alphabet, "deg": 3, "seed": c.seed + 2, "trials": 10},
)
def _check_stabilization(params: dict) -> tuple[bool, Optional[dict]]:
    rng = random.Random(params["seed"])
    alphabet = Alphabet(params["m"])
    probes = [w for w in enumerate_words(alphabet, 2) if not w.is_unit()]
    for trial in range(params["trials"]):
        symbol = _random_series(rng, alphabet, params["deg"], max_terms=4, min_len=1)
        derivation = GeneratorDerivation.inner(symbol)
        for w in probes:
            value = derivation.of_word(w)
            if value.is_zero():
                continue
            cap = int(value.degree()) + 3
            index = conjugate_vanishing_index(w, value, cap)
            if index > value.degree() / len(w) + 2:
                return False, {"trial": trial, "w": str(w), "index": index}
            total = stabilized_conjugate_sum(derivation, w)
            if value != total - conjugate_by(w, total):
                return False, {"trial": trial, "w": str(w), "reason": "sum identity"}
    return True, None


@_register(
    "derivations.normal_approx",
    lambda c: {"m": c.alphabet, "deg": 4, "seed": c.seed + 3, "trials": 50},
)
def _check_normal_approx(params: dict) -> tuple[bool, Optional[dict]]:
    rng = random.Random(params["seed"])
    alphabet = Alphabet(params["m"])
    for trial in range(params["trials"]):
        symbol = _random_series(rng, alphabet, params["deg"], max_terms=4, min_len=1)
        phi = _random_series(rng, alphabet, params["deg"])
        k = 1 + _below(rng.getrandbits, 32)
        full = frozenset(alphabet.letters())
        subset = frozenset(
            a for a in alphabet.letters() if rng.random() < 0.5
        )
        if not normal_approx_check(symbol, phi, k, full):
            return False, {"trial": trial, "k": k, "letters": sorted(full)}
        if not normal_approx_check(symbol, phi, k, subset):
            return False, {"trial": trial, "k": k, "letters": sorted(subset)}
    return True, None


# --------------------------------------------------------------------------
# cohomology checks
# --------------------------------------------------------------------------


def _random_cochain(
    rng: random.Random, alphabet: Alphabet, arity: int, max_len: int, terms: int
) -> Cochain:
    if arity == 0:
        return Cochain.scalar(alphabet, _random_coefficient(rng.getrandbits))
    keyed = [
        (
            tuple(_random_word(rng, alphabet, max_len) for _ in range(arity)),
            _random_coefficient(rng.getrandbits),
        )
        for _ in range(terms)
    ]
    return Cochain._from_valid((arity, alphabet), keyed)


@_register(
    "cohomology.coboundary_squared",
    lambda c: {"m": c.alphabet, "max_len": 2, "seed": c.seed, "trials": 10},
)
def _check_coboundary_squared(params: dict) -> tuple[bool, Optional[dict]]:
    rng = random.Random(params["seed"])
    alphabet = Alphabet(params["m"])
    for trial in range(params["trials"]):
        for arity in (0, 1, 2, 3):
            phi = _random_cochain(rng, alphabet, arity, params["max_len"], 4)
            if not coboundary(coboundary(phi)).is_zero():
                return False, {"trial": trial, "arity": arity}
    return True, None


@_register(
    "cohomology.homotopy_roundtrip",
    lambda c: {"m": c.alphabet, "max_len": 3, "seed": c.seed + 1, "trials": 10},
)
def _check_homotopy_roundtrip(params: dict) -> tuple[bool, Optional[dict]]:
    rng = random.Random(params["seed"])
    alphabet = Alphabet(params["m"])
    for trial in range(params["trials"]):
        for arity in (2, 3):
            eta = _random_cochain(rng, alphabet, arity - 1, params["max_len"], 4)
            cocycle = coboundary(eta)
            if not is_cocycle(cocycle):
                return False, {"trial": trial, "arity": arity, "reason": "not a cocycle"}
            psi = homotopy(cocycle)
            if coboundary(psi) != cocycle:
                return False, {"trial": trial, "arity": arity, "reason": "homotopy residual"}
            # series route agrees with the table on and off the support
            probes = set(psi.table)
            for _ in range(3):
                probes.add(
                    tuple(
                        _random_word(rng, alphabet, params["max_len"])
                        for _ in range(arity - 1)
                    )
                )
            for key in probes:
                direct = homotopy_on_series(
                    cocycle, [Series.basis(w) for w in key]
                )
                # the cochains hold Gaussian integers in [-3, 3] and both routes
                # only add and move them, so they agree exactly
                if direct != psi.coeff(key):
                    return False, {
                        "trial": trial,
                        "arity": arity,
                        "tuple": [str(w) for w in key],
                    }
    return True, None


@_register("cohomology.h1_dimension", lambda c: {"max_m": 3, "max_len": 3, "seed": c.seed + 2})
def _check_h1_dimension(params: dict) -> tuple[bool, Optional[dict]]:
    rng = random.Random(params["seed"])
    for m in range(1, params["max_m"] + 1):
        alphabet = Alphabet(m)
        dim = one_cocycle_dimension(alphabet, params["max_len"])
        if dim != m:
            return False, {"m": m, "dimension": dim}
        for delta in generator_cocycles(alphabet):
            if not is_cocycle(delta):
                return False, {"m": m, "reason": "generator cochain not a cocycle"}
        for _ in range(5):
            scalar = Cochain.scalar(alphabet, _random_coefficient(rng.getrandbits))
            if not coboundary(scalar).is_zero():
                return False, {"m": m, "reason": "degree-zero coboundary nonzero"}
    return True, None


# --------------------------------------------------------------------------
# suites
# --------------------------------------------------------------------------


def _call_check(
    fn: CheckFn, params: dict, refused: tuple[type[Exception], ...] = ()
) -> tuple[bool, Optional[dict]]:
    """Run one check; a crash is a failed check whose params replay it.

    Exceptions of the ``refused`` types propagate: replay turns them into a
    refusal of the payload.
    """
    try:
        return fn(params)
    except refused:
        raise
    except PowerIterationError as err:
        return False, {"non_convergence": str(err)}
    except Exception as err:
        return False, {"exception": f"{type(err).__name__}: {err}"}


def _run_suite(suite: str, config: RunConfig) -> Report:
    results = []
    for name, params_of in PARAMS.items():
        if not name.startswith(suite + "."):
            continue
        params = params_of(config)
        start = time.perf_counter()
        passed, counterexample = _call_check(CHECKS[name], params)
        elapsed = time.perf_counter() - start
        results.append(CheckResult(name, passed, params, counterexample, elapsed))
    return Report(
        suite=suite,
        passed=all(r.passed for r in results),
        config=asdict(config),
        checks=results,
    )


SUITES = ("cohomology", "derivations", "operators", "words")


# --------------------------------------------------------------------------
# command plumbing
# --------------------------------------------------------------------------


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})
    config.validate()
    return config


def _report_text(report_dict: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report_dict, indent=2, sort_keys=True) + "\n"
    lines = ["suite,check,passed,elapsed_s"]
    reports = report_dict.get("reports", [report_dict])
    for rep in reports:
        for check in rep.get("checks", ()):
            lines.append(
                f"{rep['suite']},{check['name']},{check['passed']},{check['elapsed_s']}"
            )
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
        reports = report_dict.get("reports", [report_dict])
        for rep in reports:
            for check in rep.get("checks", ()):
                status = "pass" if check["passed"] else "FAIL"
                print(f"{status}  {rep['suite']}: {check['name']}")
    else:
        print(text, end="")
    return True


def _cmd_replay(path: str) -> int:
    try:
        payload = _load_json(path)
        name = payload.get("check", payload.get("name"))
        params = payload.get("params", payload.get("payload"))
        fn = CHECKS[name]
    except (OSError, ValueError, KeyError, TypeError) as err:
        print(f"bad replay payload: {err}", file=sys.stderr)
        return 2
    refused = (ValueError, KeyError, TypeError)
    try:
        passed, counterexample = _call_check(fn, params, refused)
    except refused as err:
        print(f"bad replay payload: {err}", file=sys.stderr)
        return 2
    print(
        json.dumps(
            {"check": name, "passed": passed, "counterexample": counterexample},
            indent=2,
            sort_keys=True,
        )
    )
    return 0 if passed else 1


def _check_operator_config(config: RunConfig) -> None:
    """Refuse, before any basis is built, an operator suite that does not fit."""
    if config.cutoff < MIN_OPERATOR_CUTOFF:
        raise ValueError(f"the operator suite needs cutoff at least {MIN_OPERATOR_CUTOFF}")
    basis_dimension(config.alphabet, config.cutoff)
    words = basis_dimension(config.alphabet, min(config.cutoff, NORM_CUTOFF))
    if words > MAX_NORM_WORDS:
        raise ValueError(
            f"the norm checks' basis at cutoff {min(config.cutoff, NORM_CUTOFF)} holds "
            f"{words} words, over {MAX_NORM_WORDS}"
        )


def _cmd_verify(args: argparse.Namespace, suites: Sequence[str]) -> int:
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
        merged = reports[0].to_json_dict()
    else:
        merged = {
            "schema": SCHEMA_VERSION,
            "suite": "all",
            "passed": all(r.passed for r in reports),
            "reports": [r.to_json_dict() for r in reports],
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
    with open(path) as handle:
        return _json_typed(json.load(handle, object_pairs_hook=_unique_keys), dict, "the input")


def _cmd_dump_matrix(args: argparse.Namespace) -> int:
    """Write the left compression of a series as a word-labelled CSV."""
    try:
        series = Series.from_json_dict(_load_json(args.dump_matrix))
    except (OSError, json.JSONDecodeError, ValueError, KeyError, TypeError) as err:
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


def _cmd_verify_operators(args: argparse.Namespace) -> int:
    if getattr(args, "dump_matrix", None):
        return _cmd_dump_matrix(args)
    return _cmd_verify(args, ["operators"])


def _dump_json(data: dict, handle: TextIO) -> None:
    json.dump(data, handle, indent=2, sort_keys=True)
    handle.write("\n")


def _run_solver(
    args: argparse.Namespace,
    suite: str,
    what: str,
    read: Callable[[dict], object],
    solve: Callable[[object], tuple[dict, Optional[tuple[str, dict]]]],
) -> int:
    """The solver protocol around ``read`` and ``solve``.

    Input that ``read`` refuses is exit 2 with ``bad <what> input:``.
    ``solve`` returns its report fields and the result as ``(key, data)``,
    or no result when the input is refused, which prints the error report
    alone and exits 1.  The result goes to ``--out``, or to stdout as
    ``{key: data, "report": report}``.
    """
    try:
        problem = read(_load_json(args.infile))
    except (OSError, json.JSONDecodeError, ValueError, KeyError, TypeError) as err:
        print(f"bad {what} input: {err}", file=sys.stderr)
        return 2
    summary, result = solve(problem)
    report = {"schema": SCHEMA_VERSION, "suite": suite, **summary}
    if result is None:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 1
    key, data = result
    if args.out:
        if not _write_out(args.out, lambda handle: _dump_json(data, handle)):
            return 2
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(json.dumps({key: data, "report": report}, indent=2, sort_keys=True))
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


def _read_cocycle(data: dict) -> _CutCodes:
    codes = _read_codes(data)
    if codes.arity < 2:
        raise ValueError("homotopy needs arity at least 2")
    return codes


def _trivialize(codes: _CutCodes) -> tuple[dict, Optional[tuple]]:
    try:
        psi, residual = trivialize(codes)
    except NonCocycleError as err:
        error = {"message": "input is not a cocycle", "witness": [str(w) for w in err.witness]}
        return {"passed": False, "error": error}, None
    report = {"passed": residual.is_zero(), "residual_terms": len(residual.table)}
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

    sub.add_parser("verify-words", parents=[shared]).set_defaults(
        handler=lambda args: _cmd_verify(args, ["words"])
    )
    operators_parser = sub.add_parser("verify-operators", parents=[shared])
    operators_parser.add_argument(
        "--dump-matrix",
        metavar="SERIES_JSON",
        help="instead of verifying, dump the left compression of this series as CSV",
    )
    operators_parser.set_defaults(handler=lambda args: _cmd_verify_operators(args))
    sub.add_parser("report-all", parents=[shared]).set_defaults(
        handler=lambda args: _cmd_verify(args, SUITES)
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
