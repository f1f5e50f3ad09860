"""The verification checks: the paper's statements as seeded, replayable tests.

A check takes its parameters, a JSON-able dict, and returns its
counterexample, a dict, or ``None`` when it passes.  ``_register(name,
params)`` stores the check in ``CHECKS`` together with ``params``, a
function of the ``RunConfig`` that gives the check's suite parameters.  The
suite is the prefix of the name, and a suite runs its checks in
registration order.  Every random input is drawn from ``random.Random``
with a seed among the parameters, so the parameters replay the check.

The four word sweeps run over canonical letter patterns, one member of each
relabeling class of word tuples (``_pattern_words``), and cancellation's
set-level term runs over the letters a collision can use, so no word sweep's
cost grows with the alphabet.  The same reduction serves three checks past
the words layer.  The commutant check tests one pair (u, v) per pattern of
the string uv: a permutation of the letters is a unitary P on the basis with
``P L_u P* = L_{su}`` and ``P R_v P* = R_{sv}`` for the relabeling s.  The
derivation screens and the stabilization check spell their probes in the
letters of the trial's symbol t and the lowest others, one probe per class
under the permutations that fix t's letters, which map the inner derivation
D_t to itself (``_probe_words``), and read D_t(w) by its definition.  Two
pairs of generators decide the shift relations (``isometry_relations``).
So no count of pairs, probes or values grows with the alphabet.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Collection, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .cohomology import (
    Cochain,
    NonCocycleError,
    coboundary,
    generator_cocycles,
    homotopy,
    homotopy_on_series,
    is_cocycle,
    one_cocycle_dimension,
)
from .derivations import (
    GeneratorDerivation,
    InconsistentDerivationError,
    _conjugate_iterates,
    _iterate_sum,
    first_screen_violation,
    inner_derivation,
    normal_approx_check,
    solve_inner_symbol,
)
from .operators import (
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
)
from .series import Series, conjugate_by, convolve, first_letter_part, max_coeff_diff
from .words import Alphabet, Word, _index, min_word, power_shift_check, transport

DEFAULT_TRIALS = 10_000
#: Smallest cutoff the operator suite's specs fit: the conjugation check
#: sandwiches by a shift of length one on each side.
MIN_OPERATOR_CUTOFF = 2
#: Cutoff of the operator checks that estimate many norms of random operators.
NORM_CUTOFF = 4
#: Most words of the basis at ``RunConfig.norm_cutoff`` an operator suite
#: may hold: the norm checks estimate the norms of random operators on it.
MAX_NORM_WORDS = 2048


@dataclass
class RunConfig:
    """Shared knobs for the verification suites."""

    alphabet: int = 2
    max_len: int = 6
    cutoff: int = 5
    seed: int = 42
    tol: float = 1e-9

    @property
    def norm_cutoff(self) -> int:
        """Cutoff of the norm checks: the suite's, capped at ``NORM_CUTOFF``."""
        return min(self.cutoff, NORM_CUTOFF)

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


def _check_operator_config(config: RunConfig) -> None:
    """Refuse, before any basis is built, an operator suite that does not fit."""
    if config.cutoff < MIN_OPERATOR_CUTOFF:
        raise ValueError(f"the operator suite needs cutoff at least {MIN_OPERATOR_CUTOFF}")
    basis_dimension(config.alphabet, config.cutoff)
    words = basis_dimension(config.alphabet, config.norm_cutoff)
    if words > MAX_NORM_WORDS:
        raise ValueError(
            f"the norm checks' basis at cutoff {config.norm_cutoff} holds "
            f"{words} words, over {MAX_NORM_WORDS}"
        )


CheckFn = Callable[[dict], Optional[dict]]
ParamsFn = Callable[[RunConfig], dict]


class Check(NamedTuple):
    """A registered check: ``run(params)`` returns the counterexample or
    ``None``; ``params(config)`` gives the check's suite parameters."""

    run: CheckFn
    params: ParamsFn


CHECKS: dict[str, Check] = {}


def _register(name: str, params: ParamsFn):
    """Register a check with its suite parameters."""

    def decorate(fn: CheckFn) -> CheckFn:
        CHECKS[name] = Check(fn, params)
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
    every draw.  Every integer the checks draw follows this rule; only
    ``_word_stream`` and ``_random_operator`` write it out again, inline, for
    speed.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _word_stream(
    rng: random.Random, alphabet: Alphabet, max_len: int, min_len: int = 0
) -> Iterator[Word]:
    """An endless lazy stream of words, each with a uniform length in
    ``min_len..max_len`` and uniform letters, drawn only as they are taken.

    Each word draws ``rng.randint(min_len, max_len)`` and then one
    ``rng.randrange(alphabet.size)`` per letter, so the words and the
    generator state after them are those of the stdlib calls.  The loop runs
    ``_below``'s rule inline for the length and every letter, which saves a
    Python call per integer.  The bounds are checked here, before any draw:
    a non-integer bound or an empty range raises ``ValueError`` (the rule
    would redraw for ever on an empty range).  The letters are in range by
    construction, so each word is built by ``Word._of``'s recipe, inline.
    """
    low = _index(min_len, "min_len")
    span = _index(max_len, "max_len") - low + 1
    if span < 1:
        raise ValueError(f"empty length range {min_len}..{max_len}")
    return _drawn_words(rng.getrandbits, alphabet, low, span)


def _drawn_words(
    getrandbits: Callable[[int], int], alphabet: Alphabet, low: int, span: int
) -> Iterator[Word]:
    """The draws of ``_word_stream``, whose bounds it has checked."""
    size = alphabet.size
    span_bits, size_bits = span.bit_length(), size.bit_length()
    new = object.__new__
    while True:
        n = getrandbits(span_bits)
        while n >= span:
            n = getrandbits(span_bits)
        letters = []
        for _ in range(low + n):
            r = getrandbits(size_bits)
            while r >= size:
                r = getrandbits(size_bits)
            letters.append(r)
        word = new(Word)
        word.alphabet = alphabet
        word.letters = tuple(letters)
        word._hash = None
        yield word


def _random_words(
    rng: random.Random, alphabet: Alphabet, max_len: int, count: int, min_len: int = 0
) -> list[Word]:
    """The first ``count`` words of a new ``_word_stream``; the bounds are
    checked also when ``count`` is 0."""
    return list(itertools.islice(_word_stream(rng, alphabet, max_len, min_len), count))


def _random_word(rng: random.Random, alphabet: Alphabet, max_len: int, min_len: int = 0) -> Word:
    """The first word of a new ``_word_stream``."""
    return next(_word_stream(rng, alphabet, max_len, min_len))


def _random_coefficient(getrandbits: Callable[[int], int]) -> complex:
    """A Gaussian integer with both parts uniform in ``-3..3``."""
    return complex(_below(getrandbits, 7) - 3, _below(getrandbits, 7) - 3)


def _random_series(
    rng: random.Random, alphabet: Alphabet, max_len: int, max_terms: int = 5, min_len: int = 0
) -> Series:
    getrandbits = rng.getrandbits
    terms = [
        (_random_word(rng, alphabet, max_len, min_len), _random_coefficient(getrandbits))
        for _ in range(1 + _below(getrandbits, max_terms))
    ]
    return Series._from_valid(alphabet, terms)


def _random_operator(basis: TruncationBasis, seed: int) -> TruncatedOperator:
    """A random operator with one nonzero entry in each column per row length.

    For each column in rank order and each row length 0..cutoff, a row drawn
    uniformly from that length's rank block gets a nonzero
    ``_random_coefficient`` (a zero is redrawn).  So every band of every
    column is filled, with ``dimension * (cutoff + 1)`` entries.  The row
    and both parts run ``_below``'s rule inline, on the same bit stream.
    """
    getrandbits = random.Random(seed).getrandbits
    offsets = basis.offsets().tolist()
    sizes = [end - start for start, end in zip(offsets, offsets[1:])]
    blocks = [(start, size, size.bit_length()) for start, size in zip(offsets, sizes)]
    rows, vals = [], []
    for _ in range(basis.dimension):
        for start, size, size_bits in blocks:
            r = getrandbits(size_bits)
            while r >= size:
                r = getrandbits(size_bits)
            rows.append(start + r)
            re = im = 3  # parts in 0..6, shifted to -3..3; (3, 3) is the zero, redrawn
            while re == im == 3:
                re = getrandbits(3)
                while re >= 7:
                    re = getrandbits(3)
                im = getrandbits(3)
                while im >= 7:
                    im = getrandbits(3)
            vals.append(complex(re - 3, im - 3))
    cols = np.repeat(np.arange(basis.dimension), len(blocks))
    return TruncatedOperator._from_coo(basis, rows, cols, vals)


def _random_cochain(
    rng: random.Random, alphabet: Alphabet, arity: int, max_len: int, terms: int
) -> Cochain:
    if arity == 0:
        return Cochain.scalar(alphabet, _random_coefficient(rng.getrandbits))
    keyed = [
        (
            tuple(_random_words(rng, alphabet, max_len, arity)),
            _random_coefficient(rng.getrandbits),
        )
        for _ in range(terms)
    ]
    return Cochain._from_valid((arity, alphabet), keyed)


# --------------------------------------------------------------------------
# word checks
# --------------------------------------------------------------------------


def _patterns(length: int, letters: Sequence[int], used: int = 0) -> list[tuple[tuple, int]]:
    """The restricted growth strings of ``length`` in lex order, spelled in
    ``letters``, each with the count of letters it uses: letter i first appears
    after every letter below i, and the i-th to appear is ``letters[i]``.
    Renaming a tuple's letters by first occurrence gives exactly one, so there
    are sum S(length, k) over k <= len(letters).  With ``used`` > 0 they are
    the tails of the strings that have used ``used`` letters."""
    level, k = [((), used)], len(letters)
    for _ in range(length):
        level = [(p + (letters[j],), n + (j == n)) for p, n in level for j in range(min(n + 1, k))]
    return level


def _pattern_words(rng: random.Random, alphabet: Alphabet, *spans: range) -> Iterator[tuple]:
    """The words cut by each split ``lengths`` in ``product(*spans)`` from
    each pattern of length ``sum(lengths)``, built part by part from tails.
    A permutation of the generators is an automorphism of the free semigroup,
    so an identity whose words are read only through tuple operations holds on
    a relabeling class when it holds on one member.  Each split's block draws
    one injective relabeling into the alphabet, so high letters are exercised.
    """
    size, word = alphabet.size, functools.cache(functools.partial(Word._of, alphabet))
    for lengths in itertools.product(*spans):
        letters = rng.sample(range(size), min(size, sum(lengths)))
        rows = [((), 0)]
        for length in lengths:
            used = {n for _, n in rows}
            tails = {k: [(word(p), n) for p, n in _patterns(length, letters, k)] for k in used}
            rows = [(ws + (w,), after) for ws, n in rows for w, after in tails[n]]
        for ws, _ in rows:
            yield ws


def _fresh(alphabet: Alphabet, used: Collection[int], count: int) -> list[int]:
    """The ``count`` lowest letters of the alphabet not in ``used``, ascending."""
    return list(itertools.islice((a for a in alphabet.letters() if a not in used), count))


@_register(
    "words.concat_laws", lambda c: {"m": c.alphabet, "len": min(c.max_len, 2), "seed": c.seed + 4}
)
def _check_concat_laws(params: dict) -> Optional[dict]:
    """Unit, length and associativity laws on one triple up to ``len`` per
    relabeling class: products read letters only by tuple concatenation."""
    alphabet = Alphabet(params["m"])
    rng = random.Random(params["seed"])
    e = alphabet.unit()
    for u, v, w in _pattern_words(rng, alphabet, *[range(params["len"] + 1)] * 3):
        if e * u != u or u * e != u:
            return {"u": str(u)}
        uv = u * v
        if len(uv) != len(u) + len(v):
            return {"u": str(u), "v": str(v)}
        if uv * w != u * (v * w):
            return {"u": str(u), "v": str(v), "w": str(w)}
    return None


@_register(
    "words.cancellation",
    lambda c: {
        "m": c.alphabet, "len": min(c.max_len, 5 if c.alphabet <= 2 else 3), "seed": c.seed + 5
    },
)
def _check_cancellation(params: dict) -> Optional[dict]:
    """Division undoes products on one pair of words up to ``len`` per
    relabeling class, and ``v -> u v`` is injective on the words up to ``len``
    for one u per class: products and strips read letters only through tuple
    concatenation, slicing and equality, so a relabeling maps a collision to a
    collision.  The v's of the set test are spelled in u's letters and the
    ``2 len`` lowest others, which is exact: a collision ``u v1 == u v2`` uses
    at most ``2 len`` letters outside u, and a relabeling that fixes u's
    letters moves them there."""
    alphabet = Alphabet(params["m"])
    rng = random.Random(params["seed"])
    lengths = range(params["len"] + 1)
    for (u,) in _pattern_words(rng, alphabet, lengths):
        letters = sorted({*u.letters, *_fresh(alphabet, u.letters, 2 * params["len"])})
        vs = [Word._of(alphabet, t) for n in lengths for t in itertools.product(letters, repeat=n)]
        if len({u * v for v in vs}) != len(vs):
            return {"u": str(u)}
    for u, v in _pattern_words(rng, alphabet, lengths, lengths):
        w = u * v
        if w.strip_prefix(u) != v or w.strip_suffix(v) != u:
            return {"u": str(u), "v": str(v)}
    return None


@_register(
    "words.order_invariance",
    lambda c: {"m": c.alphabet, "max_len": c.max_len, "seed": c.seed, "trials": DEFAULT_TRIALS},
)
def _check_order_invariance(params: dict) -> Optional[dict]:
    alphabet = Alphabet(params["m"])
    rng = random.Random(params["seed"])
    triples = zip(*[_word_stream(rng, alphabet, params["max_len"])] * 3)
    for u, v, w in itertools.islice(triples, params["trials"]):
        if sum([u < v, u == v, u > v]) != 1:
            return {"u": str(u), "v": str(v)}
        if u < v and not (w * u < w * v and u * w < v * w):
            return {"u": str(u), "v": str(v), "w": str(w)}
    return None


@_register(
    "words.division_roundtrip",
    lambda c: {
        "m": c.alphabet, "max_len": c.max_len, "seed": c.seed + 1, "trials": DEFAULT_TRIALS
    },
)
def _check_division_roundtrip(params: dict) -> Optional[dict]:
    alphabet = Alphabet(params["m"])
    rng = random.Random(params["seed"])
    triples = zip(*[_word_stream(rng, alphabet, params["max_len"])] * 3)
    for u, v, x in itertools.islice(triples, params["trials"]):
        w = u * v
        if w.strip_prefix(u) != v or w.strip_suffix(v) != u:
            return {"u": str(u), "v": str(v)}
        rest = w.strip_prefix(x)
        if rest is not None and x * rest != w:
            return {"w": str(w), "x": str(x)}
    return None


@_register(
    "words.min_staged_vs_scan",
    lambda c: {
        "m": c.alphabet, "max_len": c.max_len, "seed": c.seed + 2, "sets": 100, "set_size": 100
    },
)
def _check_min_staged(params: dict) -> Optional[dict]:
    alphabet = Alphabet(params["m"])
    rng = random.Random(params["seed"])
    for _ in range(params["sets"]):
        sample = set(_random_words(rng, alphabet, params["max_len"], params["set_size"]))
        staged = min_word(sample)
        scanned = min(sample)
        if staged != scanned:
            return {"set": sorted(str(w) for w in sample)}
    return None


@_register(
    "words.power_shift_sweep",
    lambda c: {"m": c.alphabet, "w_max": 3, "u_max": 4, "seed": c.seed + 6},
)
def _check_power_shift_sweep(params: dict) -> Optional[dict]:
    """The power-shift implication on one pair (w, u), w not the unit, per
    relabeling class: the check reads letters only by tuple repetition,
    concatenation and equality, and v is a slice of them."""
    alphabet = Alphabet(params["m"])
    rng = random.Random(params["seed"])
    spans = range(1, params["w_max"] + 1), range(params["u_max"] + 1)
    for w, u in _pattern_words(rng, alphabet, *spans):
        k_min = math.ceil(len(u) / len(w)) + 1
        for k in (k_min, k_min + 1):
            # both sides of v w^k = w^k u have length |u| + k|w|, so the
            # hypothesis forces v to be the |u|-prefix of w^k u; every
            # other v of length |u| passes vacuously
            v = Word._of(alphabet, (w.letters * k + u.letters)[: len(u)])
            if not power_shift_check(w, u, v, k):
                return {"w": str(w), "u": str(u), "v": str(v), "k": k}
    return None


@_register(
    "words.primitive_root_commutation",
    lambda c: {
        "m": c.alphabet, "max_len": min(c.max_len, 6 if c.alphabet <= 2 else 4), "seed": c.seed + 7
    },
)
def _check_primitive_root(params: dict) -> Optional[dict]:
    """Nonempty words commute exactly when they share a primitive root, on one
    pair per relabeling class: both read letters only by tuple operations."""
    alphabet = Alphabet(params["m"])
    rng = random.Random(params["seed"])
    lengths = range(1, params["max_len"] + 1)
    root = functools.cache(lambda w: w.primitive_root()[0])
    for u, w in _pattern_words(rng, alphabet, lengths, lengths):
        if u.commutes_with(w) != (root(u) == root(w)):
            return {"u": str(u), "w": str(w)}
    return None


@_register(
    "words.transport_roundtrip",
    lambda c: {
        "m": c.alphabet, "max_len": c.max_len, "seed": c.seed + 3, "trials": DEFAULT_TRIALS // 10
    },
)
def _check_transport(params: dict) -> Optional[dict]:
    alphabet = Alphabet(params["m"])
    rng = random.Random(params["seed"])
    for _ in range(params["trials"]):
        w, u = _random_words(rng, alphabet, params["max_len"], 2)
        v = transport(w, u)
        if v is not None and u * w != w * v:
            return {"w": str(w), "u": str(u)}
        # a commuting pair always transports to itself
        root = _random_word(rng, alphabet, 3)
        if not root.is_unit():
            p = root ** (1 + _below(rng.getrandbits, 3))
            q = root ** (1 + _below(rng.getrandbits, 3))
            if transport(p, q) != q:
                return {"w": str(p), "u": str(q)}
    return None


# --------------------------------------------------------------------------
# operator checks
# --------------------------------------------------------------------------


@_register("operators.isometry_relations", lambda c: {"m": c.alphabet, "cutoff": c.cutoff})
def _check_isometry(params: dict) -> Optional[dict]:
    basis = TruncationBasis(Alphabet(params["m"]), params["cutoff"])
    deviations = isometry_relations(basis)
    if all(d == 0.0 for d in deviations.values()):
        return None
    return {"deviations": deviations}


@_register(
    "operators.commutant",
    lambda c: {
        "m": c.alphabet, "cutoff": c.cutoff, "pair_max": min(3, c.cutoff), "seed": c.seed + 6
    },
)
def _check_commutant(params: dict) -> Optional[dict]:
    """Left and right shifts commute on one pair (u, v) with ``|u| + |v| <=
    pair_max`` per relabeling class of the string uv: a permutation s of the
    letters is a unitary P on the basis with ``P L_u P* = L_{su}`` and
    ``P R_v P* = R_{sv}``, so the pair (su, sv) passes when (u, v) does."""
    alphabet = Alphabet(params["m"])
    basis = TruncationBasis(alphabet, params["cutoff"])
    rng = random.Random(params["seed"])
    pair_max = params["pair_max"]
    if pair_max < 0:
        raise ValueError("negative length bound")
    for n in range(pair_max + 1):
        for u, v in _pattern_words(rng, alphabet, range(n, n + 1), range(pair_max - n + 1)):
            if not commutant_check(u, v, basis):
                return {"u": str(u), "v": str(v)}
    return None


@_register(
    "operators.band_projections",
    lambda c: {
        "m": c.alphabet,
        "cutoff": c.norm_cutoff,
        "seed": c.seed,
        "trials": 3,
        "tol": c.tol,
    },
)
def _check_band_projections(params: dict) -> Optional[dict]:
    basis = TruncationBasis(Alphabet(params["m"]), params["cutoff"])
    cutoff = params["cutoff"]
    for trial in range(params["trials"]):
        op = _random_operator(basis, params["seed"] + trial)
        reference = norm_estimate(op, params["tol"])
        for j in range(-cutoff, cutoff + 1):
            banded = degree_band(op, j)
            if max_column_deviation(degree_band(banded, j), banded) != 0.0:
                return {"trial": trial, "j": j, "reason": "not idempotent"}
            other = j + 1 if j < cutoff else j - 1
            if degree_band(banded, other).vals.size:
                return {"trial": trial, "j": j, "reason": "bands overlap"}
            # band filter equals the explicit projection sandwich sum
            summed = TruncatedOperator.zero(basis)
            for k in range(max(0, j), cutoff + 1):
                if 0 <= k - j <= cutoff:
                    summed = summed + q_projection(basis, k) @ op @ q_projection(basis, k - j)
            if max_column_deviation(banded, summed) != 0.0:
                return {"trial": trial, "j": j, "reason": "projection sum differs"}
            if banded.vals.size and norm_estimate(banded, params["tol"]) > reference + 1e-6:
                return {"trial": trial, "j": j, "reason": "band not contractive"}
    return None


@_register(
    "operators.compression_product",
    lambda c: {"m": c.alphabet, "cutoff": c.cutoff, "deg": 2, "seed": c.seed + 1, "trials": 50},
)
def _check_compression_product(params: dict) -> Optional[dict]:
    alphabet = Alphabet(params["m"])
    basis = TruncationBasis(alphabet, params["cutoff"])
    rng = random.Random(params["seed"])
    for trial in range(params["trials"]):
        phi = _random_series(rng, alphabet, params["deg"])
        psi = _random_series(rng, alphabet, params["deg"])
        left = left_matrix(phi, basis)
        product = left @ left_matrix(psi, basis)
        direct = left_matrix(convolve(phi, psi), basis)
        degrees = int(max(phi.degree(), 0) + max(psi.degree(), 0))
        # Gaussian-integer coefficients in [-3, 3]: every product and sum of
        # them is a small Gaussian integer, exact in floats, so both sides agree exactly
        if max_column_deviation(product, direct, basis.cutoff - degrees) != 0.0:
            return {"trial": trial, "phi": str(phi), "psi": str(psi)}
        if degrees <= basis.cutoff:
            acted = left.apply(psi)
            if max_coeff_diff(acted, convolve(phi, psi)) != 0.0:
                return {"trial": trial, "reason": "matrix action differs"}
    return None


@_register(
    "operators.cesaro_contraction",
    lambda c: {
        "m": c.alphabet,
        "cutoff": c.norm_cutoff,
        "seed": c.seed + 2,
        "trials": 20,
        "tol": c.tol,
    },
)
def _check_cesaro_contraction(params: dict) -> Optional[dict]:
    basis = TruncationBasis(Alphabet(params["m"]), params["cutoff"])
    for trial in range(params["trials"]):
        op = _random_operator(basis, params["seed"] + trial)
        k = 1 + trial % 5
        smoothed = norm_estimate(cesaro_op(op, k), params["tol"])
        reference = norm_estimate(op, params["tol"])
        if smoothed > reference + 1e-6:
            return {"trial": trial, "k": k, "smoothed": smoothed, "ref": reference}
    return None


@_register(
    "operators.cesaro_vector_bound",
    lambda c: {"m": c.alphabet, "cutoff": c.cutoff, "seed": c.seed + 3, "trials": 50},
)
def _check_cesaro_vector(params: dict) -> Optional[dict]:
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
                return {"trial": trial, "k": k, "phi": str(phi)}
    return None


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
def _check_conjugation(params: dict) -> Optional[dict]:
    alphabet = Alphabet(params["m"])
    basis = TruncationBasis(alphabet, params["cutoff"])
    rng = random.Random(params["seed"])
    for trial in range(params["trials"]):
        w = _random_word(rng, alphabet, params["w_max"])
        phi = _random_series(rng, alphabet, params["deg"])
        if not conjugation_check(w, phi, basis):
            return {"trial": trial, "w": str(w), "phi": str(phi)}
    return None


@_register(
    "operators.filter_norm_bound",
    lambda c: {
        "m": c.alphabet,
        "cutoff": c.norm_cutoff,
        "seed": c.seed + 5,
        "trials": 25,
        "tol": c.tol,
    },
)
def _check_filter_norm(params: dict) -> Optional[dict]:
    alphabet = Alphabet(params["m"])
    basis = TruncationBasis(alphabet, params["cutoff"])
    rng = random.Random(params["seed"])
    for trial in range(params["trials"]):
        phi = _random_series(rng, alphabet, params["cutoff"])
        reference = norm_estimate(left_matrix(phi, basis), params["tol"])
        # any other letter filters phi to zero, of norm 0, which never fails
        for a in sorted({w.letters[0] for w in phi.table if w.letters}):
            filtered = norm_estimate(
                left_matrix(first_letter_part(phi, a), basis), params["tol"]
            )
            if filtered > 2 * reference + 1e-6:
                return {"trial": trial, "letter": a, "phi": str(phi)}
    return None


@_register(
    "operators.mobius_witness",
    # the truncated ratio reaches 1.8 only past cutoff ~80 (limit 1.9)
    lambda c: {"c": 0.9, "cutoff": 120, "lo": 1.8, "tol": c.tol},
)
def _check_mobius_witness(params: dict) -> Optional[dict]:
    ratio = mobius_witness_ratio(params["c"], params["cutoff"], params["tol"])
    if params["lo"] <= ratio <= 2.0 + 1e-6:
        return None
    return {"ratio": ratio}


# --------------------------------------------------------------------------
# derivation checks
# --------------------------------------------------------------------------


@_register(
    "derivations.inner_roundtrip",
    lambda c: {"sizes": [2, 3], "deg": 3, "seed": c.seed, "trials": 25},
)
def _check_inner_roundtrip(params: dict) -> Optional[dict]:
    rng = random.Random(params["seed"])
    for trial in range(params["trials"]):
        for m in params["sizes"]:
            alphabet = Alphabet(m)
            symbol = _random_series(rng, alphabet, params["deg"], max_terms=4, min_len=1)
            derivation = GeneratorDerivation.inner(symbol)
            recovered = solve_inner_symbol(derivation)
            if recovered != symbol:
                return {"trial": trial, "m": m, "symbol": str(symbol)}
            for a in alphabet.letters():
                produced = inner_derivation(
                    recovered, Series.basis(alphabet.generator(a))
                )
                if produced != derivation.value(a):
                    return {"trial": trial, "m": m, "generator": a}
    return None


def _probe_words(alphabet: Alphabet, symbol: Series, max_len: int) -> list[Word]:
    """One word of each relabeling class of the nonunit words up to
    ``max_len`` under the permutations that fix the symbol's letters, which
    map its inner derivation to itself: the words spelled in the symbol's
    letters and the ``max_len`` lowest others in which those others first
    appear in ascending order (``_patterns`` with the symbol's letters
    counted as used), ascending in the graded-lex order."""
    used = sorted(symbol.letters_used())
    letters = used + _fresh(alphabet, used, max_len)
    return [
        Word._of(alphabet, p)
        for n in range(1, max_len + 1)
        for p, _ in sorted(_patterns(n, letters, len(used)))
    ]


@_register(
    "derivations.screens", lambda c: {"m": c.alphabet, "deg": 3, "seed": c.seed + 1, "trials": 10}
)
def _check_screens(params: dict) -> Optional[dict]:
    """Both screens pass on an inner derivation at every probe of length up
    to 3 (``_probe_words``), and the solver refuses unit weight."""
    rng = random.Random(params["seed"])
    alphabet = Alphabet(params["m"])
    for trial in range(params["trials"]):
        symbol = _random_series(rng, alphabet, params["deg"], max_terms=4, min_len=1)
        for w in _probe_words(alphabet, symbol, 3):
            violation = first_screen_violation(w, inner_derivation(symbol, Series.basis(w)))
            if violation is not None:
                screen = violation[0].removesuffix("_support")
                return {"trial": trial, "w": str(w), "screen": screen}
    poisoned = GeneratorDerivation(alphabet, {0: Series.unit(alphabet)})
    try:
        solve_inner_symbol(poisoned)
    except InconsistentDerivationError as err:
        if err.check != "commuting_support":
            return {"reason": f"wrong screen {err.check}"}
    else:
        return {"reason": "unit-weight value was accepted"}
    return None


@_register(
    "derivations.stabilization",
    lambda c: {"m": c.alphabet, "deg": 3, "seed": c.seed + 2, "trials": 10},
)
def _check_stabilization(params: dict) -> Optional[dict]:
    """The conjugate iterates of an inner derivation's value D_t(w) vanish in
    time and their sum stabilizes, at every probe of length up to 2
    (``_probe_words``); one iterate list per probe gives the index and the sum."""
    rng = random.Random(params["seed"])
    alphabet = Alphabet(params["m"])
    for trial in range(params["trials"]):
        symbol = _random_series(rng, alphabet, params["deg"], max_terms=4, min_len=1)
        for w in _probe_words(alphabet, symbol, 2):
            value = inner_derivation(symbol, Series.basis(w))
            if value.is_zero():
                continue
            iterates = _conjugate_iterates(w, value)
            if len(iterates) > value.degree() / len(w) + 2:
                return {"trial": trial, "w": str(w), "index": len(iterates)}
            total = _iterate_sum(value, iterates)
            if value != total - conjugate_by(w, total):
                return {"trial": trial, "w": str(w), "reason": "sum identity"}
    return None


@_register(
    "derivations.normal_approx",
    lambda c: {"m": c.alphabet, "deg": 4, "seed": c.seed + 3, "trials": 50},
)
def _check_normal_approx(params: dict) -> Optional[dict]:
    rng = random.Random(params["seed"])
    alphabet = Alphabet(params["m"])
    for trial in range(params["trials"]):
        symbol = _random_series(rng, alphabet, params["deg"], max_terms=4, min_len=1)
        phi = _random_series(rng, alphabet, params["deg"])
        k = 1 + _below(rng.getrandbits, 32)
        full = phi.letters_used()  # the restriction reads no other letter
        subset = frozenset(a for a in sorted(full) if rng.random() < 0.5)
        if not normal_approx_check(symbol, phi, k, full):
            return {"trial": trial, "k": k, "letters": sorted(full)}
        if not normal_approx_check(symbol, phi, k, subset):
            return {"trial": trial, "k": k, "letters": sorted(subset)}
    return None


# --------------------------------------------------------------------------
# cohomology checks
# --------------------------------------------------------------------------


@_register(
    "cohomology.coboundary_squared",
    lambda c: {"m": c.alphabet, "max_len": 2, "seed": c.seed, "trials": 10},
)
def _check_coboundary_squared(params: dict) -> Optional[dict]:
    rng = random.Random(params["seed"])
    alphabet = Alphabet(params["m"])
    for trial in range(params["trials"]):
        for arity in (0, 1, 2, 3):
            phi = _random_cochain(rng, alphabet, arity, params["max_len"], 4)
            if not coboundary(coboundary(phi)).is_zero():
                return {"trial": trial, "arity": arity}
    return None


@_register(
    "cohomology.homotopy_roundtrip",
    lambda c: {"m": c.alphabet, "max_len": 3, "seed": c.seed + 1, "trials": 10},
)
def _check_homotopy_roundtrip(params: dict) -> Optional[dict]:
    rng = random.Random(params["seed"])
    alphabet = Alphabet(params["m"])
    for trial in range(params["trials"]):
        for arity in (2, 3):
            eta = _random_cochain(rng, alphabet, arity - 1, params["max_len"], 4)
            cocycle = coboundary(eta)
            try:
                psi = homotopy(cocycle)
            except NonCocycleError:
                return {"trial": trial, "arity": arity, "reason": "not a cocycle"}
            if coboundary(psi) != cocycle:
                return {"trial": trial, "arity": arity, "reason": "homotopy residual"}
            # series route agrees with the table on and off the support
            probes = set(psi.table)
            for _ in range(3):
                probes.add(tuple(_random_words(rng, alphabet, params["max_len"], arity - 1)))
            for key in probes:
                direct = homotopy_on_series(
                    cocycle, [Series.basis(w) for w in key]
                )
                # the cochains hold Gaussian integers in [-3, 3] and both routes
                # only add and move them, so they agree exactly
                if direct != psi.coeff(key):
                    return {
                        "trial": trial,
                        "arity": arity,
                        "tuple": [str(w) for w in key],
                    }
    return None


@_register("cohomology.h1_dimension", lambda c: {"max_m": 3, "max_len": 3, "seed": c.seed + 2})
def _check_h1_dimension(params: dict) -> Optional[dict]:
    rng = random.Random(params["seed"])
    for m in range(1, params["max_m"] + 1):
        alphabet = Alphabet(m)
        dim = one_cocycle_dimension(alphabet, params["max_len"])
        if dim != m:
            return {"m": m, "dimension": dim}
        for delta in generator_cocycles(alphabet):
            if not is_cocycle(delta):
                return {"m": m, "reason": "generator cochain not a cocycle"}
        for _ in range(5):
            scalar = Cochain.scalar(alphabet, _random_coefficient(rng.getrandbits))
            if not coboundary(scalar).is_zero():
                return {"m": m, "reason": "degree-zero coboundary nonzero"}
    return None
