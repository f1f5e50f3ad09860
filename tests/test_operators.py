import io
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncdisc.checks import _random_operator, _random_series
from ncdisc.operators import (
    MAX_DIMENSION,
    PowerIterationError,
    TruncatedOperator,
    TruncationBasis,
    _product,
    cesaro_op,
    commutant_check,
    conjugation_check,
    degree_band,
    isometry_relations,
    left_matrix,
    max_column_deviation,
    mobius_coefficients,
    mobius_witness_ratio,
    norm_estimate,
    q_projection,
    right_matrix,
    write_csv,
)
from ncdisc.series import (
    Series,
    cesaro,
    conjugate_by,
    convolve,
    degree_part,
    first_letter_part,
    max_coeff_diff,
)
from ncdisc.words import Alphabet, enumerate_words

A2 = Alphabet(2)
E = A2.unit()
Z0 = A2.generator(0)
Z1 = A2.generator(1)


def _dense_gaussian(basis, seed):
    """A dense complex Gaussian operator on the basis, drawn from ``default_rng(seed)``."""
    gen = np.random.default_rng(seed)
    n = basis.dimension
    matrix = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    return TruncatedOperator.from_dense(basis, matrix)


def w2(*letters):
    return A2.word(letters)


def xi(*letters):
    return Series.basis(A2.word(letters))


# -- basis -------------------------------------------------------------------


def test_basis_dimension_is_geometric_sum():
    assert TruncationBasis(A2, 4).dimension == 1 + 2 + 4 + 8 + 16
    assert TruncationBasis(Alphabet(3), 3).dimension == 40
    assert TruncationBasis(A2, 0).dimension == 1


def test_rank_matches_enumeration_oracle():
    for m in (1, 2, 3):
        alphabet = Alphabet(m)
        for cutoff in range(6):
            basis = TruncationBasis(alphabet, cutoff)
            words = enumerate_words(alphabet, cutoff)
            assert basis.dimension == len(words)
            assert [basis.word(i) for i in range(basis.dimension)] == words
            assert [basis.rank(w) for w in words] == list(range(basis.dimension))
            assert list(basis.lengths) == [len(w) for w in words]
    with pytest.raises(ValueError):
        TruncationBasis(A2, -1)


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=7),
    st.data(),
)
def test_rank_word_roundtrip(m, cutoff, data):
    alphabet = Alphabet(m)
    basis = TruncationBasis(alphabet, cutoff)
    letters = data.draw(st.lists(st.integers(0, m - 1), max_size=cutoff))
    w = alphabet.word(letters)
    assert basis.word(basis.rank(w)) == w
    i = data.draw(st.integers(0, basis.dimension - 1))
    assert basis.rank(basis.word(i)) == i


def test_rank_rejects_words_outside_the_basis():
    basis = TruncationBasis(A2, 2)
    with pytest.raises(ValueError):
        basis.rank(Alphabet(3).generator(0))
    with pytest.raises(ValueError):
        basis.rank(w2(0, 1, 0))
    for rank in (-1, basis.dimension):
        with pytest.raises(ValueError):
            basis.word(rank)


def test_dimension_budget_refused_before_allocation():
    assert TruncationBasis(A2, 19).dimension == 2**20 - 1 <= MAX_DIMENSION
    tracemalloc.start()
    try:
        for alphabet, cutoff in ((A2, 40), (Alphabet(3), 10**9), (Alphabet(1), 10**9)):
            with pytest.raises(ValueError):
                TruncationBasis(alphabet, cutoff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_basis_tables_match_closed_form_and_enumeration():
    for m in (1, 2, 3, 4):
        alphabet = Alphabet(m)
        for cutoff in range(6):
            basis = TruncationBasis(alphabet, cutoff)
            closed = [k if m == 1 else (m**k - 1) // (m - 1) for k in range(cutoff + 2)]
            assert basis.offsets().tolist() == closed
            with pytest.raises(ValueError):
                basis.offsets()[0] = 1
            words = enumerate_words(alphabet, cutoff)
            assert [basis.rank(w) for w in words] == list(range(basis.dimension))
            index = {w: i for i, w in enumerate(words)}
            pairs = [
                (x, y)
                for x, u in enumerate(words)
                for y, v in enumerate(words)
                if len(u) + len(v) <= cutoff
            ]
            oracle = [index[words[x] * words[y]] for x, y in pairs]
            left, right = (np.array(side, dtype=np.int64) for side in zip(*pairs))
            assert basis.concat(left, right).tolist() == oracle
            assert [int(basis.concat(x, y)) for x, y in pairs] == oracle


# -- compressions -------------------------------------------------------------


def test_left_matrix_examples():
    basis = TruncationBasis(A2, 2)
    shift = left_matrix(xi(0), basis)
    assert shift.apply(Series.unit(A2)) == xi(0)
    assert shift.apply(xi(1)) == xi(0, 1)
    assert shift.apply(xi(0, 1)).is_zero()
    assert left_matrix(Series.unit(A2), basis).entries == TruncatedOperator.identity(basis).entries


def test_compressions_match_loop_reference():
    rng = random.Random(41)
    for m in (1, 2, 3):
        alphabet = Alphabet(m)
        for cutoff in range(5):
            basis = TruncationBasis(alphabet, cutoff)
            words = enumerate_words(alphabet, cutoff)
            phi = _random_series(rng, alphabet, cutoff + 1, max_terms=4)
            left, right = {}, {}
            for u in words:
                for w, c in phi.iter_terms():
                    if len(w) + len(u) <= cutoff:
                        left[(basis.rank(w * u), basis.rank(u))] = c
                        right[(basis.rank(u * w), basis.rank(u))] = c
            assert left_matrix(phi, basis).entries == left
            assert right_matrix(phi, basis).entries == right


def test_operator_arithmetic_matches_dense():
    basis = TruncationBasis(Alphabet(3), 2)
    rng = random.Random(43)
    a = left_matrix(_random_series(rng, basis.alphabet, 2, max_terms=6), basis)
    b = right_matrix(_random_series(rng, basis.alphabet, 2, max_terms=6), basis)
    da, db = a.to_dense(), b.to_dense()
    assert np.allclose((a @ b).to_dense(), da @ db, rtol=0, atol=1e-12)
    assert np.array_equal((a + b).to_dense(), da + db)
    assert np.array_equal((a - b).to_dense(), da - db)
    assert np.array_equal((2j * a).to_dense(), 2j * da)
    assert np.array_equal(a.adjoint().to_dense(), da.conj().T)
    for op in (a @ b, a + b, a.adjoint()):
        assert np.all(np.diff(op.rows * basis.dimension + op.cols) > 0)
        assert np.all(op.vals != 0)


def test_left_matrix_action_matches_convolution():
    basis = TruncationBasis(A2, 5)
    rng = random.Random(2)
    for _ in range(30):
        phi = _random_series(rng, A2, 2, max_terms=4)
        psi = _random_series(rng, A2, 3, max_terms=4)
        acted = left_matrix(phi, basis).apply(psi)
        assert max_coeff_diff(acted, convolve(phi, psi)) == 0


def test_right_matrix_acts_on_the_right():
    basis = TruncationBasis(A2, 4)
    op = right_matrix(xi(1), basis)
    assert op.apply(xi(0, 1)) == xi(0, 1, 1)
    dense = op.to_dense()
    assert dense[basis.rank(w2(0, 1, 1)), basis.rank(w2(0, 1))] == 1
    assert np.count_nonzero(dense[:, basis.rank(w2(0, 1))]) == 1


def test_compression_product_identity():
    basis = TruncationBasis(A2, 5)
    rng = random.Random(3)
    for _ in range(30):
        phi = _random_series(rng, A2, 2, max_terms=4)
        psi = _random_series(rng, A2, 2, max_terms=4)
        product = left_matrix(phi, basis) @ left_matrix(psi, basis)
        direct = left_matrix(convolve(phi, psi), basis)
        degrees = int(max(phi.degree(), 0) + max(psi.degree(), 0))
        assert max_column_deviation(product, direct, basis.cutoff - degrees) == 0


def test_apply_requires_support_in_basis():
    basis = TruncationBasis(A2, 1)
    with pytest.raises(ValueError):
        left_matrix(xi(0), basis).apply(xi(0, 1))


# -- canonical form --------------------------------------------------------------


def _assert_canonical(op, *sources):
    """Strictly increasing positions, no exact zero, and no memory shared with the sources."""
    keys = op.rows * op.basis.dimension + op.cols
    assert (keys[1:] > keys[:-1]).all()
    assert (op.vals != 0).all()
    assert op.rows.dtype == op.cols.dtype == np.int64 and op.vals.dtype == complex
    for mine in (op.rows, op.cols, op.vals):
        for source in sources:
            assert not np.shares_memory(mine, source)


def _arrays(*ops):
    return [array for op in ops for array in (op.rows, op.cols, op.vals)]


@pytest.mark.parametrize("m, cutoff", [(1, 5), (2, 3), (3, 2)])
def test_every_producer_returns_a_canonical_operator(m, cutoff):
    basis = TruncationBasis(Alphabet(m), cutoff)
    a, b = _random_operator(basis, 3), _random_operator(basis, 4)
    for op in (a + b, a - b, a - a, -a, a * 2.5, 2.5 * a, a * 0, a @ b, a.adjoint()):
        _assert_canonical(op, *_arrays(a, b))
    assert (a - a).vals.size == (a * 0).vals.size == 0
    for j in range(-cutoff, cutoff + 1):
        _assert_canonical(degree_band(a, j), *_arrays(a))
    for k in (1, 2, cutoff + 1):
        _assert_canonical(cesaro_op(a, k), *_arrays(a))
    for k in range(cutoff + 2):
        _assert_canonical(q_projection(basis, k))
    _assert_canonical(TruncatedOperator.identity(basis))
    _assert_canonical(TruncatedOperator.zero(basis))
    dense = a.to_dense()
    _assert_canonical(TruncatedOperator.from_dense(basis, dense), dense, *_arrays(a))


def test_from_coo_sums_cancels_and_copies():
    basis = TruncationBasis(A2, 2)
    rows = np.array([2, 0, 2, 1, 0, 5], dtype=np.int64)
    cols = np.array([1, 0, 1, 1, 0, 6], dtype=np.int64)
    vals = np.array([1.5, 2, -1.5, 3j, 1, 0], dtype=complex)
    op = TruncatedOperator._from_coo(basis, rows, cols, vals)
    _assert_canonical(op, rows, cols, vals)
    assert op.entries == {(0, 0): 3, (1, 1): 3j}
    # sorted input keeps its positions, in arrays the operator owns
    for kept in ([1, 3, 5], [1, 3]):
        inputs = rows[kept], cols[kept], vals[kept]
        op = TruncatedOperator._from_coo(basis, *inputs)
        _assert_canonical(op, *inputs)
        assert op.entries == {(0, 0): 2, (1, 1): 3j}


def _dense_deviation(a, b, limit):
    """``max |da - db|`` over the columns of degree <= limit, from dense matrices."""
    columns = a.basis.lengths <= (a.basis.cutoff if limit is None else limit)
    return float(np.abs(a.to_dense() - b.to_dense())[:, columns].max(initial=0.0))


@pytest.mark.parametrize("m, cutoff", [(1, 5), (2, 3), (3, 2)])
def test_max_column_deviation_matches_dense_oracle(m, cutoff):
    basis = TruncationBasis(Alphabet(m), cutoff)
    zero = TruncatedOperator.zero(basis)
    for seed in range(4):
        a, b = _random_operator(basis, seed), _random_operator(basis, seed + 10)
        # a plus b's top-degree columns: equal to a in every column below the top degree
        partial = a + b._with_vals(np.where(basis.lengths[b.cols] == cutoff, b.vals, 0))
        cases = ((a, b), (b, a), (a, a), (a, partial), (a, zero), (zero, a), (zero, zero))
        for x, y in cases:
            for limit in (None, -1, *range(cutoff + 1)):
                assert max_column_deviation(x, y, limit) == _dense_deviation(x, y, limit)
        assert max_column_deviation(a, b) > 0.0
        assert max_column_deviation(a, a) == max_column_deviation(a, b, -1) == 0.0
        assert max_column_deviation(a, partial, cutoff - 1) == 0.0 < max_column_deviation(a, partial)
    others = (TruncationBasis(Alphabet(m + 1), cutoff), TruncationBasis(basis.alphabet, cutoff + 1))
    for other in others:
        for x, y in ((zero, TruncatedOperator.zero(other)), (TruncatedOperator.identity(other), zero)):
            with pytest.raises(ValueError, match="operators over different truncation bases"):
                max_column_deviation(x, y)


# -- band structure -------------------------------------------------------------


def test_degree_band_examples():
    basis = TruncationBasis(A2, 3)
    op = left_matrix(xi(0) + 2 * Series.unit(A2), basis)
    diagonal = degree_band(op, 0)
    assert diagonal.entries == (2 * TruncatedOperator.identity(basis)).entries
    assert degree_band(left_matrix(xi(0), basis), -1).entries == {}
    with pytest.raises(ValueError):
        degree_band(op, 5)


def test_degree_band_matches_series_filter():
    basis = TruncationBasis(A2, 4)
    rng = random.Random(5)
    for _ in range(20):
        phi = _random_series(rng, A2, 3, max_terms=4)
        op = left_matrix(phi, basis)
        for j in range(4):
            banded = degree_band(op, j)
            filtered = left_matrix(degree_part(phi, j), basis)
            assert max_column_deviation(banded, filtered) == 0


def test_degree_band_matches_projection_sum():
    basis = TruncationBasis(A2, 3)
    op = _dense_gaussian(basis, 11)
    for j in range(-3, 4):
        summed = TruncatedOperator.zero(basis)
        for k in range(max(0, j), basis.cutoff + 1):
            if 0 <= k - j <= basis.cutoff:
                summed = summed + q_projection(basis, k) @ op @ q_projection(basis, k - j)
        assert max_column_deviation(degree_band(op, j), summed) == 0


def test_bands_are_orthogonal_projections():
    basis = TruncationBasis(A2, 3)
    op = _dense_gaussian(basis, 13)
    for j in range(-2, 3):
        banded = degree_band(op, j)
        assert degree_band(banded, j).entries == banded.entries
        assert degree_band(banded, j + 1).entries == {}


def test_band_contractive():
    basis = TruncationBasis(A2, 3)
    op = _dense_gaussian(basis, 17)
    reference = norm_estimate(op)
    for j in range(-3, 4):
        assert norm_estimate(degree_band(op, j)) <= reference + 1e-6


# -- Fejer smoothing -------------------------------------------------------------


def test_cesaro_op_matches_series_cesaro():
    basis = TruncationBasis(A2, 4)
    rng = random.Random(19)
    for _ in range(20):
        phi = _random_series(rng, A2, 3, max_terms=4)
        for k in (1, 2, 3, 5):
            smoothed = cesaro_op(left_matrix(phi, basis), k)
            direct = left_matrix(cesaro(phi, k), basis)
            assert max_column_deviation(smoothed, direct) == 0


def test_cesaro_op_fixes_identity():
    basis = TruncationBasis(A2, 3)
    identity = TruncatedOperator.identity(basis)
    for k in (1, 2, 7):
        assert cesaro_op(identity, k).entries == identity.entries
    with pytest.raises(ValueError):
        cesaro_op(identity, 0)


def test_cesaro_op_contractive_on_random_operators():
    basis = TruncationBasis(A2, 4)
    for trial in range(10):
        op = _dense_gaussian(basis, 100 + trial)
        reference = norm_estimate(op)
        assert norm_estimate(cesaro_op(op, 1 + trial % 5)) <= reference + 1e-6


def test_cesaro_vector_convergence_surrogate():
    basis = TruncationBasis(A2, 4)
    rng = random.Random(23)
    unit = Series.unit(A2)
    for _ in range(20):
        phi = _random_series(rng, A2, 4, max_terms=4)
        if phi.is_zero():
            continue
        op = left_matrix(phi, basis)
        for k in (2, 4, 16, 64):
            drift = (cesaro_op(op, k).apply(unit) - phi).l2_norm()
            assert drift <= (phi.degree() / k) * phi.l2_norm() + 1e-12


# -- norm estimation -------------------------------------------------------------


def _rank_one(basis):
    """3 times the matrix unit from ``z1`` to ``z0z1``."""
    matrix = np.zeros((basis.dimension, basis.dimension))
    matrix[basis.rank(w2(0, 1)), basis.rank(Z1)] = 3.0
    return TruncatedOperator.from_dense(basis, matrix)


def test_norm_estimate_examples():
    basis = TruncationBasis(A2, 3)
    assert norm_estimate(TruncatedOperator.identity(basis)) == pytest.approx(1.0, abs=1e-9)
    assert norm_estimate(left_matrix(xi(0, 1), basis)) == pytest.approx(1.0, abs=1e-9)
    rank_one = _rank_one(basis)
    assert norm_estimate(rank_one) == pytest.approx(3.0, abs=1e-8)
    assert norm_estimate(TruncatedOperator.zero(basis)) == 0.0
    with pytest.raises(ValueError):
        norm_estimate(rank_one, tol=0.0)


def test_norm_estimate_matches_svd_oracle():
    basis = TruncationBasis(A2, 3)
    for trial in range(5):
        op = _dense_gaussian(basis, 200 + trial)
        exact = float(np.linalg.svd(op.to_dense(), compute_uv=False)[0])
        estimate = norm_estimate(op, tol=1e-12)
        assert estimate == pytest.approx(exact, rel=1e-6)
        assert estimate <= exact + 1e-9


def _bincount_product(rows, cols, vals, x):
    """Reference for ``A x``: ``np.bincount`` sums each row's terms in entry
    order from 0.0, the real and imaginary parts apart."""
    terms = vals * x[cols]
    if not np.iscomplexobj(terms):
        return np.bincount(rows, terms, len(x))
    out = np.empty(len(x), dtype=complex)
    out.real = np.bincount(rows, terms.real, len(x))
    out.imag = np.bincount(rows, terms.imag, len(x))
    return out


def _same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_product_matches_a_bincount_reference_bit_for_bit():
    # the Gram product A^H (A x) of norm_estimate, on operators whose rows repeat
    rng = np.random.default_rng(5)
    basis = TruncationBasis(Alphabet(2), 5)
    ops = [_random_operator(basis, seed) for seed in (1, 2, 3)]
    ops.append(left_matrix(_random_series(random.Random(4), basis.alphabet, 3), basis))
    for op in ops:
        assert np.any(op.rows[1:] == op.rows[:-1])
        x = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
        conj = op.vals.conjugate()
        gram = _product(op.cols, op.rows, conj, _product(op.rows, op.cols, op.vals, x))
        mid = _bincount_product(op.rows, op.cols, op.vals, x)
        assert _same_bits(gram, _bincount_product(op.cols, op.rows, conj, mid))


def _fresh_product(rows, cols, vals, x):
    """Reference for ``A x`` with fresh arrays, each term ``np.multiply(vals, x[cols])``:
    a function call, so numpy never evaluates it as ``x[cols] * vals``."""
    terms = np.multiply(vals, x[cols])
    out = np.zeros(len(x), dtype=terms.dtype)
    np.add.at(out, rows, terms)
    return out


@pytest.mark.parametrize("entries", [100, 20_000])
def test_product_multiplies_in_one_operand_order_bit_for_bit(entries):
    # from 16,384 complex entries (256 KiB) up, vals * x[cols] is computed as
    # x[cols] * vals, whose bits differ; the kernel's order does not depend on size
    rng = np.random.default_rng(entries)
    n = entries // 2
    rows, cols = rng.integers(0, n, entries), rng.integers(0, n, entries)
    vals = rng.standard_normal(entries) + 1j * rng.standard_normal(entries)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    expected = _fresh_product(rows, cols, vals, x)
    assert _same_bits(_product(rows, cols, vals, x), expected)
    gathered, terms = np.empty(entries, dtype=complex), np.empty(entries, dtype=complex)
    out = np.full(n, np.nan, dtype=complex)  # a used buffer is zeroed first
    assert _product(rows, cols, vals, x, out, gathered, terms) is out
    assert _same_bits(out, expected)
    # the output may be the input vector itself, as in the Gram product's second half
    assert _same_bits(_product(rows, cols, vals, x.copy(), x, gathered, terms), expected)


def test_norm_estimate_lanczos_matches_svd_oracle():
    rng = random.Random(300)
    cases = [
        left_matrix(_random_series(rng, A2, 3, max_terms=4), TruncationBasis(A2, c))
        for c in range(6, 10)
    ]
    cases.append(_dense_gaussian(TruncationBasis(A2, 3), 300))
    for op in cases:
        exact = float(np.linalg.svd(op.to_dense(), compute_uv=False)[0])
        estimate = norm_estimate(op, tol=1e-11)
        assert estimate == pytest.approx(exact, rel=1e-8)
        assert estimate <= exact * (1 + 1e-12)


def test_norm_estimate_step_budget():
    # power iteration at the same tolerance needs 1153 steps on this symbol
    phi = _random_series(random.Random(12), A2, 3, max_terms=4)
    op = left_matrix(phi, TruncationBasis(A2, 10))
    assert 0 < norm_estimate(op, 1e-9, max_iter=150) <= phi.l1_norm() + 1e-9


def test_norm_estimate_invariant_subspace_is_exact():
    # a tolerance no Ritz value change can meet: only the invariant exit returns
    basis = TruncationBasis(A2, 3)
    identity = TruncatedOperator.identity(basis)
    assert norm_estimate(identity, tol=1e-15, max_iter=1) == pytest.approx(1.0, abs=1e-14)
    rank_one = _rank_one(basis)
    assert norm_estimate(rank_one, tol=1e-15, max_iter=2) == pytest.approx(3.0, abs=1e-14)
    # a cap far above the dimension sizes no storage
    scalar = TruncatedOperator.from_dense(TruncationBasis(Alphabet(1), 0), [[3 - 4j]])
    tracemalloc.start()
    try:
        value = norm_estimate(scalar, tol=1e-15, max_iter=10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(5.0, abs=1e-14)
    assert peak < 2**20


def test_norm_estimate_when_all_ones_is_in_the_kernel():
    # a Lanczos run from the all-ones vector would see only 0
    basis = TruncationBasis(A2, 2)
    matrix = np.zeros((basis.dimension, basis.dimension))
    matrix[0, 0], matrix[0, 1] = 1.0, -1.0
    op = TruncatedOperator.from_dense(basis, matrix)
    exact = float(np.linalg.svd(op.to_dense(), compute_uv=False)[0])
    assert exact == pytest.approx(np.sqrt(2), rel=1e-15)
    assert norm_estimate(op, tol=1e-12) == pytest.approx(exact, rel=1e-12)


def test_norm_estimate_when_the_top_eigenvector_is_orthogonal_to_all_ones():
    # I + 2 x x^T with x orthogonal to the all-ones vector: a Lanczos run from
    # that vector would see only the eigenvalue 1
    basis = TruncationBasis(A2, 1)
    x = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
    op = TruncatedOperator.from_dense(basis, np.eye(3) + 2 * np.outer(x, x))
    exact = float(np.linalg.svd(op.to_dense(), compute_uv=False)[0])
    assert exact == pytest.approx(3.0, rel=1e-15)
    assert norm_estimate(op, tol=1e-12) == pytest.approx(exact, rel=1e-12)


def test_norm_estimate_invariant_exits_match_svd_oracle():
    # the e + z1z0 compressions end by the settled test, and the Mobius
    # Toeplitz matrix, the compression of an isometry, in an invariant Krylov
    # space after three steps
    phi = Series(A2, {E: 3 + 2j, w2(1, 0): -3 + 2j})
    cases = [left_matrix(phi, TruncationBasis(A2, cutoff)) for cutoff in (6, 7, 8)]
    one = Alphabet(1)
    coefficients = mobius_coefficients(0.9, 41)
    mobius = Series(one, {one.word([0] * k): c for k, c in enumerate(coefficients)})
    cases.append(left_matrix(mobius, TruncationBasis(one, 40)))
    for op in cases:
        exact = float(np.linalg.svd(op.to_dense(), compute_uv=False)[0])
        assert norm_estimate(op, tol=1e-11) == pytest.approx(exact, rel=1e-10)


@pytest.mark.parametrize("cutoff", [6, 7, 8])
def test_norm_estimate_certified_invariant_exit_matches_svd_oracle(cutoff):
    # the shift by z0z1 has a Gram operator with the eigenvalues 0 and 1 only,
    # so its Krylov space is invariant after two steps
    op = left_matrix(xi(0, 1), TruncationBasis(A2, cutoff))
    estimate = norm_estimate(op, tol=1e-11)
    exact = float(np.linalg.svd(op.to_dense(), compute_uv=False)[0])
    assert estimate == pytest.approx(exact, rel=1e-10)


def test_norm_estimate_nonconvergence_reported():
    basis = TruncationBasis(A2, 2)
    op = _dense_gaussian(basis, 7)
    with pytest.raises(PowerIterationError):
        norm_estimate(op, tol=1e-15, max_iter=2)


@pytest.mark.parametrize("cutoff", [12, 13])
def test_norm_estimate_memory_is_linear(cutoff):
    # the three-term recurrence holds a handful of vectors; a
    # stored Lanczos basis would hold one per step, 60-120 here
    basis = TruncationBasis(A2, cutoff)
    cases = [left_matrix(_random_series(random.Random(seed), A2, 3, max_terms=4), basis)
             for seed in (300, 12)]
    cases.append(left_matrix(xi(0, 1), basis))  # an invariant exit
    for op in cases:
        budget = 16 * 16 * (op.basis.dimension + op.vals.size)
        tracemalloc.start()
        try:
            norm_estimate(op, 1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget


def test_norm_estimate_over_nested_cutoffs():
    # the compressions are nested, so their norms cannot fall as the cutoff
    # grows; this symbol's norms rise at every rung
    phi = _random_series(random.Random(300), A2, 3, max_terms=4)
    previous = 0.0
    for cutoff in range(6, 14):
        op = left_matrix(phi, TruncationBasis(A2, cutoff))
        estimate = norm_estimate(op, 1e-9)
        assert estimate >= previous
        if op.basis.dimension <= 1023:
            exact = float(np.linalg.svd(op.to_dense(), compute_uv=False)[0])
            assert estimate == pytest.approx(exact, abs=1e-8)
        previous = estimate


def _lanczos_oracle(op, tol=1e-9, max_iter=10_000):
    """``norm_estimate`` without its workspace: the same steps and reductions,
    with fresh arrays at every step and every product by ``_fresh_product``."""
    n = op.basis.dimension
    rows, cols, vals, conj_vals = op.rows, op.cols, op.vals, op.vals.conjugate()
    eps = np.finfo(float).eps

    def inner(x, y):
        return float(np.add.reduce(x.view(float) * y.view(float)))

    q = (np.modf(np.arange(1, n + 1) * ((1 + np.sqrt(5)) / 2))[0] - 0.5).astype(complex)
    q = q / np.sqrt(inner(q, q))
    alphas, betas, before, previous = [], [], None, None
    for _ in range(max_iter):
        w = _fresh_product(cols, rows, conj_vals, _fresh_product(rows, cols, vals, q))
        alphas.append(inner(q, w))
        w = w - alphas[-1] * q
        if betas:
            w = w - betas[-1] * before
        beta = np.sqrt(inner(w, w))
        tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        ritz = float(np.linalg.eigvalsh(tri)[-1])
        invariant = beta <= np.sqrt(n) * eps * ritz
        settled = previous is not None and abs(ritz - previous) <= tol * max(abs(ritz), 1e-300)
        if invariant or settled:
            return float(np.sqrt(ritz))
        betas.append(beta)
        q, before, previous = w / beta, q, ritz
    raise PowerIterationError("oracle did not stabilize")


def test_norm_estimate_matches_the_per_step_oracle_bit_for_bit():
    # m = 2 left compressions up the ladder, which end by the settled test; at
    # cutoff 13 they hold 18,430 entries, and there vals * x[cols] would give
    # other bits.  Then invariant exits: the Mobius Toeplitz matrix, a matrix
    # with the all-ones vector in its kernel, and the shift by z0z1
    phi = Series(A2, {E: -1 - 1j, w2(1, 0, 0): 3 - 2j})
    cases = [(left_matrix(phi, TruncationBasis(A2, cutoff)), 1e-9) for cutoff in range(6, 14)]
    one = Alphabet(1)
    coefficients = mobius_coefficients(0.9, 41)
    mobius = Series(one, {one.word([0] * k): c for k, c in enumerate(coefficients)})
    basis = TruncationBasis(A2, 2)
    matrix = np.zeros((basis.dimension, basis.dimension))
    matrix[0, 0], matrix[0, 1] = 1.0, -1.0
    cases.append((left_matrix(mobius, TruncationBasis(one, 40)), 1e-11))
    cases.append((TruncatedOperator.from_dense(basis, matrix), 1e-11))
    cases += [(left_matrix(xi(0, 1), TruncationBasis(A2, c)), 1e-11) for c in (6, 8, 13)]
    for op, tol in cases:
        assert norm_estimate(op, tol).hex() == _lanczos_oracle(op, tol).hex()
    assert max(op.vals.size for op, _ in cases) >= 16_384


def test_norm_estimate_of_every_band_of_random_operators_matches_svd():
    # from the all-ones start, three of these bands ended by the settled test
    # far below the norm: (c, s, j) = (2, 4, 0) at sqrt(20) against sqrt(26),
    # (3, 2, 0) at sqrt(27) against 6 and (4, 1, 1) at 4.7958 against sqrt(26);
    # the start meets their top eigenvectors at rounding level
    count = 0
    for cutoff in (2, 3, 4):
        basis = TruncationBasis(Alphabet(3), cutoff)
        for seed in range(5):
            op = _random_operator(basis, seed)
            for j in range(-cutoff, cutoff + 1):
                band = degree_band(op, j)
                exact = float(np.linalg.svd(band.to_dense(), compute_uv=False)[0])
                assert norm_estimate(band, tol=1e-12) == pytest.approx(exact, rel=1e-9)
                count += 1
    assert count == 105


def test_norm_estimate_has_the_same_bits_at_any_blas_thread_count():
    # at n = 16,383 the BLAS dot and norm split their sums across threads,
    # which once moved the last bits of this estimate
    src = str(Path(norm_estimate.__code__.co_filename).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    program = (
        "import random\n"
        "from ncdisc.checks import _random_series\n"
        "from ncdisc.operators import TruncationBasis, norm_estimate, right_matrix\n"
        "from ncdisc.words import Alphabet\n"
        "phi = _random_series(random.Random(301), Alphabet(2), 3, max_terms=5)\n"
        "print(norm_estimate(right_matrix(phi, TruncationBasis(Alphabet(2), 13))).hex())\n"
    )
    bits = []
    for threads in ("1", "2"):
        result = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
        )
        assert result.returncode == 0, result.stderr
        bits.append(result.stdout.strip())
    assert bits[0] == bits[1]


def test_norm_estimate_refuses_an_entry_outside_the_basis():
    # the workspace's gathers wrap, so the range is checked once, up front
    basis = TruncationBasis(A2, 2)
    op = TruncatedOperator.identity(basis)
    for field in ("rows", "cols"):
        for bad in (basis.dimension, -1):
            broken = TruncatedOperator._from_sorted(basis, op.rows, op.cols, op.vals)
            getattr(broken, field)[-1] = bad
            with pytest.raises(IndexError):
                norm_estimate(broken)


# -- relation checks -------------------------------------------------------------


def test_commutant_examples():
    basis = TruncationBasis(A2, 4)
    assert commutant_check(Z0, Z1, basis)
    assert commutant_check(E, E, basis)
    rng = random.Random(29)
    five = TruncationBasis(A2, 5)
    for _ in range(20):
        u = A2.word(rng.randrange(2) for _ in range(rng.randint(0, 2)))
        v = A2.word(rng.randrange(2) for _ in range(rng.randint(0, 1)))
        assert commutant_check(u, v, five)


def test_isometry_relations_hold_exactly():
    for cutoff in (1, 2, 3):
        report = isometry_relations(TruncationBasis(A2, cutoff))
        assert report == {"orthogonality": 0.0, "range_sum": 0.0, "unit_defect": 0.0}
    report3 = isometry_relations(TruncationBasis(Alphabet(3), 2))
    assert all(v == 0.0 for v in report3.values())
    with pytest.raises(ValueError):
        isometry_relations(TruncationBasis(A2, 0))


def test_conjugation_check_examples():
    basis = TruncationBasis(A2, 4)
    assert conjugation_check(Z0, xi(0), basis)  # both sides the shift itself
    assert conjugation_check(Z0, xi(1), basis)  # both sides vanish
    with pytest.raises(ValueError):
        conjugation_check(w2(0, 1), xi(0, 1), TruncationBasis(A2, 3))


def test_conjugation_check_randomized():
    basis = TruncationBasis(A2, 7)
    rng = random.Random(31)
    for _ in range(15):
        w = A2.word(rng.randrange(2) for _ in range(rng.randint(0, 2)))
        phi = _random_series(rng, A2, 3, max_terms=4)
        assert conjugation_check(w, phi, basis)
        # exact at the default tolerance zero for non-integer weights too
        scale = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 10.0 ** rng.randint(-8, 8)
        assert conjugation_check(w, phi.scaled(scale), basis)


def test_conjugated_sandwich_matches_series_route_entrywise():
    basis = TruncationBasis(A2, 6)
    phi = 2 * xi(0, 1) - xi(1) + 3j * xi(0, 0)
    w = Z0
    shift = left_matrix(xi(0), basis)
    sandwiched = shift.adjoint() @ left_matrix(phi, basis) @ shift
    direct = left_matrix(conjugate_by(w, phi), basis)
    assert max_column_deviation(sandwiched, direct, 2) == 0


# -- constant-removal norm witness ------------------------------------------------


def test_mobius_coefficients_against_polynomial_oracle():
    # (1 - conj(c) z) * sum a_n z^n must equal c - z up to the cutoff
    for c in (0.3, 0.9):
        coeffs = mobius_coefficients(c, 30)
        reconstructed = [coeffs[0]]
        for n in range(1, 30):
            reconstructed.append(coeffs[n] - c * coeffs[n - 1])
        assert reconstructed[0] == pytest.approx(c)
        assert reconstructed[1] == pytest.approx(-1.0)
        for value in reconstructed[2:]:
            assert value == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        mobius_coefficients(1.0, 5)


def test_mobius_witness_degenerate_and_bounded():
    assert mobius_witness_ratio(0.0, 30) == pytest.approx(1.0, abs=1e-9)
    for c, cutoff in ((0.5, 40), (0.9, 60)):
        assert mobius_witness_ratio(c, cutoff) <= 2.0 + 1e-6


def test_mobius_witness_against_svd_oracle():
    # frozen from the dense SVD of the 61x61 truncation at c = 0.9
    ratio = mobius_witness_ratio(0.9, 60, tol=1e-11)
    assert ratio == pytest.approx(1.7461337691581407, abs=1e-6)


def test_mobius_witness_increases_toward_limit():
    values = [mobius_witness_ratio(0.9, n) for n in (20, 60, 120)]
    assert values[0] < values[1] < values[2] < 1.9


def test_filter_norm_upper_bound():
    basis = TruncationBasis(A2, 4)
    rng = random.Random(37)
    for _ in range(15):
        phi = _random_series(rng, A2, 4, max_terms=4)
        reference = norm_estimate(left_matrix(phi, basis))
        for a in range(2):
            filtered = norm_estimate(left_matrix(first_letter_part(phi, a), basis))
            assert filtered <= 2 * reference + 1e-6


# -- export ------------------------------------------------------------------------


def test_write_csv():
    basis = TruncationBasis(A2, 1)
    op = left_matrix(xi(0), basis)
    buffer = io.StringIO()
    write_csv(op, buffer)
    lines = buffer.getvalue().strip().splitlines()
    assert lines[0] == "row,col,re,im"
    assert "z0,e,1.0,0.0" in lines
    assert len(lines) == 1 + len(op.entries)


def test_write_csv_values_and_order():
    basis = TruncationBasis(A2, 2)
    op = left_matrix((0.1 + 0.2j) * xi(1) - 2 * Series.unit(A2), basis)
    buffer = io.StringIO()
    write_csv(op, buffer)
    rows = [line.split(",") for line in buffer.getvalue().strip().splitlines()[1:]]
    assert ["z1", "e", "0.1", "0.2"] in rows
    assert ["z1z0", "z0", "0.1", "0.2"] in rows
    assert ["e", "e", "-2.0", "0.0"] in rows
    positions = [(basis.rank(A2.parse(r)), basis.rank(A2.parse(c))) for r, c, _, _ in rows]
    assert positions == sorted(positions)
    assert len(set(positions)) == len(rows) == 1 + 2 + 7
