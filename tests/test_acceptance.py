"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here.  Randomized inputs use integer weights so
that the asserted identities are exact in floating point; norm inequalities
carry the stated additive slack for the power-iteration estimates.
"""

import math
import random
import time

import numpy as np

from ncdisc.checks import _random_series
from ncdisc.cohomology import (
    Cochain,
    coboundary,
    generator_cocycles,
    homotopy,
    homotopy_on_series,
    is_cocycle,
    one_cocycle_dimension,
)
from ncdisc.derivations import (
    GeneratorDerivation,
    inner_derivation,
    solve_inner_symbol,
)
from ncdisc.operators import (
    TruncationBasis,
    cesaro_op,
    left_matrix,
    max_column_deviation,
    mobius_witness_ratio,
    norm_estimate,
    right_matrix,
)
from ncdisc.series import (
    Series,
    conditional_expectation,
    conjugate_by,
    convolve,
    first_letter_part,
)
from ncdisc.words import Alphabet, enumerate_words, power_shift_check

from oracles import conjugate_vanishing_index, from_dense

A2 = Alphabet(2)
E2 = A2.unit()


def _dense_gaussian(basis, seed):
    """A dense complex Gaussian operator on the basis, drawn from ``default_rng(seed)``."""
    gen = np.random.default_rng(seed)
    n = basis.dimension
    matrix = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    return from_dense(basis, matrix)


def _line(criterion, label, ok):
    print(f"ACCEPTANCE {criterion} {label}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_power_shift_exhaustive():
    started = time.perf_counter()
    counterexamples = []
    bases = [w for w in enumerate_words(A2, 3) if not w.is_unit()]
    candidates = enumerate_words(A2, 4)
    by_length = {}
    for w in candidates:
        by_length.setdefault(len(w), []).append(w)
    for w in bases:
        for u in candidates:
            k_min = math.ceil(len(u) / len(w)) + 1
            for k in (k_min, k_min + 1):
                for v in by_length[len(u)]:
                    if not power_shift_check(w, u, v, k):
                        counterexamples.append((w, u, v, k))
    elapsed = time.perf_counter() - started
    ok = not counterexamples and elapsed < 60.0
    _line(1, "power-shift sweep", ok)
    assert counterexamples == []
    assert elapsed < 60.0


def test_criterion_2_commutant():
    small = enumerate_words(A2, 2)
    middles = enumerate_words(A2, 3)
    exact = True
    for u in small:
        for v in middles:
            for w in middles:
                lhs = convolve(Series.basis(u), convolve(Series.basis(w), Series.basis(v)))
                rhs = convolve(convolve(Series.basis(u), Series.basis(w)), Series.basis(v))
                expected = Series.basis(u * w * v)
                exact = exact and lhs == rhs == expected

    basis = TruncationBasis(A2, 5)
    worst = 0.0
    for u in small:
        for v in small:
            left = left_matrix(Series.basis(u), basis)
            right = right_matrix(Series.basis(v), basis)
            worst = max(
                worst,
                max_column_deviation(
                    left @ right, right @ left, basis.cutoff - len(u) - len(v)
                ),
            )
    ok = exact and worst < 1e-12
    _line(2, "left/right commutant", ok)
    assert exact
    assert worst < 1e-12


def test_criterion_3_cesaro_contraction_and_convergence():
    basis = TruncationBasis(A2, 4)
    contraction_ok = True
    for trial in range(100):
        op = _dense_gaussian(basis, 1000 + trial)
        k = 1 + trial % 6
        if norm_estimate(cesaro_op(op, k)) > norm_estimate(op) + 1e-6:
            contraction_ok = False

    rng = random.Random(31)
    unit = Series.unit(A2)
    vector_ok = True
    for _ in range(50):
        phi = _random_series(rng, A2, 4)
        if phi.is_zero():
            continue
        op = left_matrix(phi, basis)
        for k in range(2, 33):
            drift = (cesaro_op(op, k).apply(unit) - phi).l2_norm()
            if drift > (phi.degree() / k) * phi.l2_norm() + 1e-12:
                vector_ok = False
    ok = contraction_ok and vector_ok
    _line(3, "Fejer smoothing contraction and convergence", ok)
    assert contraction_ok
    assert vector_ok


def test_criterion_4_conditional_expectation():
    rng = random.Random(41)
    multiplicative_ok = True
    fixation_ok = True
    for trial in range(10_000):
        alphabet = A2 if trial % 2 == 0 else Alphabet(3)
        phi = _random_series(rng, alphabet, 3, max_terms=4)
        psi = _random_series(rng, alphabet, 3, max_terms=4)
        subset = [a for a in alphabet.letters() if rng.random() < 0.5]
        lhs = conditional_expectation(convolve(phi, psi), subset)
        rhs = convolve(
            conditional_expectation(phi, subset),
            conditional_expectation(psi, subset),
        )
        if lhs != rhs:
            multiplicative_ok = False
        if conditional_expectation(phi, phi.letters_used()) != phi:
            fixation_ok = False
        if conditional_expectation(phi, alphabet.letters()) != phi:
            fixation_ok = False
    ok = multiplicative_ok and fixation_ok
    _line(4, "conditional expectation", ok)
    assert multiplicative_ok
    assert fixation_ok


def test_criterion_5_conjugation():
    basis = TruncationBasis(A2, 7)
    rng = random.Random(59)
    worst = 0.0
    for _ in range(50):
        w = A2.word(rng.randrange(2) for _ in range(rng.randint(0, 2)))
        phi = _random_series(rng, A2, 3)
        deg = 0 if phi.is_zero() else int(phi.degree())
        shift = left_matrix(Series.basis(w), basis)
        sandwiched = shift.adjoint() @ left_matrix(phi, basis) @ shift
        direct = left_matrix(conjugate_by(w, phi), basis)
        worst = max(
            worst,
            max_column_deviation(
                sandwiched, direct, basis.cutoff - deg - 2 * len(w)
            ),
        )
    ok = worst < 1e-12
    _line(5, "conjugation invariance", ok)
    assert worst < 1e-12


def test_criterion_6_derivation_pipeline():
    started = time.perf_counter()
    rng = random.Random(61)
    roundtrip_ok = True
    stabilization_ok = True
    for trial in range(200):
        alphabet = A2 if trial % 2 == 0 else Alphabet(3)
        symbol = _random_series(rng, alphabet, 3, max_terms=4, min_len=1)
        if symbol.is_zero():
            continue
        derivation = GeneratorDerivation.inner(symbol)
        recovered = solve_inner_symbol(derivation)
        if recovered != symbol:
            roundtrip_ok = False
        for a in alphabet.letters():
            gen = Series.basis(alphabet.generator(a))
            if inner_derivation(recovered, gen) != derivation.value(a):
                roundtrip_ok = False
        for a in alphabet.letters():
            value = derivation.value(a)
            if value.is_zero():
                continue
            index = conjugate_vanishing_index(alphabet.generator(a), value)
            if index > value.degree() / 1 + 2:
                stabilization_ok = False
    elapsed = time.perf_counter() - started
    ok = roundtrip_ok and stabilization_ok and elapsed < 120.0
    _line(6, "derivation trivialization pipeline", ok)
    assert roundtrip_ok
    assert stabilization_ok
    assert elapsed < 120.0


def test_criterion_7_cochain_complex():
    rng = random.Random(71)

    def random_cochain(arity, max_len=3, terms=4):
        if arity == 0:
            return Cochain.scalar(A2, complex(rng.randint(-3, 3), rng.randint(-3, 3)))
        table = {}
        for _ in range(terms):
            key = tuple(
                A2.word(rng.randrange(2) for _ in range(rng.randint(0, max_len)))
                for _ in range(arity)
            )
            table[key] = table.get(key, 0j) + complex(
                rng.randint(-3, 3), rng.randint(-3, 3)
            )
        return Cochain(arity, A2, table)

    squared_ok = True
    for arity in (0, 1, 2, 3):
        for _ in range(25):
            if not coboundary(coboundary(random_cochain(arity))).is_zero():
                squared_ok = False

    homotopy_ok = True
    agreement_ok = True
    for arity in (2, 3):
        for _ in range(100):
            eta = random_cochain(arity - 1)
            cocycle = coboundary(eta)
            if not is_cocycle(cocycle):
                homotopy_ok = False
                continue
            psi = homotopy(cocycle)
            if not (coboundary(psi) - cocycle).is_zero():
                homotopy_ok = False
            probes = set(psi.table) | {
                key[: arity - 1] for key in cocycle.table
            }
            for key in probes:
                direct = homotopy_on_series(cocycle, [Series.basis(w) for w in key])
                if direct != psi.coeff(key):
                    agreement_ok = False
    ok = squared_ok and homotopy_ok and agreement_ok
    _line(7, "cochain complex and homotopy", ok)
    assert squared_ok
    assert homotopy_ok
    assert agreement_ok


def test_criterion_8_first_cohomology_dimension():
    dims_ok = True
    boundary_ok = True
    for m in (1, 2, 3):
        alphabet = Alphabet(m)
        if one_cocycle_dimension(alphabet, 3) != m:
            dims_ok = False
        if len(generator_cocycles(alphabet)) != m:
            dims_ok = False
        for value in (1.0, -2.5, 3j):
            if not coboundary(Cochain.scalar(alphabet, value)).is_zero():
                boundary_ok = False
    ok = dims_ok and boundary_ok
    _line(8, "first cohomology dimension", ok)
    assert dims_ok
    assert boundary_ok


def test_criterion_9_filter_norm_upper_bound():
    basis = TruncationBasis(A2, 4)
    rng = random.Random(91)
    ok = True
    for _ in range(100):
        phi = _random_series(rng, A2, 4)
        reference = norm_estimate(left_matrix(phi, basis))
        for a in range(2):
            filtered = norm_estimate(left_matrix(first_letter_part(phi, a), basis))
            if filtered > 2 * reference + 1e-6:
                ok = False
    _line(9, "first-letter filter upper bound", ok)
    assert ok


def test_criterion_9_mobius_witness():
    started = time.perf_counter()
    ratio = mobius_witness_ratio(0.9, 60)
    elapsed = time.perf_counter() - started
    ok = ratio >= 1.8 and elapsed < 10.0
    _line(9, f"Mobius witness (ratio {ratio:.4f} at cutoff 60)", ok)
    assert elapsed < 10.0
    assert ratio <= 2.0 + 1e-6
    # The truncated ratio at cutoff 60 is 1.7461 (exact SVD agrees with the
    # Lanczos estimate); it reaches 1.8 only past cutoff ~80 on its way to
    # the limit 1.9.  The stated threshold at this cutoff is not attainable.
    assert ratio >= 1.8, (
        f"constant-removal norm ratio at cutoff 60 is {ratio:.4f}; "
        "the truncation has not yet reached 1.8 (limit 1.9)"
    )
