"""Reference forms that only the tests compare against.

Dense matrices of a truncated operator, the degree parts of a series, the
value of a derivation at a power of a word, the vanishing index of the
conjugate-transport iterates, and the shift relations over every pair of
generators.  No command of the package needs them, so they live with the
tests.
"""

import numpy as np

from ncdisc import operators
from ncdisc.derivations import GeneratorDerivation, _conjugate_iterates
from ncdisc.operators import TruncatedOperator, TruncationBasis, max_column_deviation, q_projection
from ncdisc.series import Series
from ncdisc.words import Word


def from_dense(basis: TruncationBasis, matrix: np.ndarray) -> TruncatedOperator:
    matrix = np.asarray(matrix)
    n = basis.dimension
    if matrix.shape != (n, n):
        raise ValueError(f"matrix shape {matrix.shape} does not match dimension {n}")
    rows, cols = np.nonzero(matrix)
    return TruncatedOperator._from_coo(basis, rows, cols, matrix[rows, cols])


def to_dense(op: TruncatedOperator) -> np.ndarray:
    n = op.basis.dimension
    out = np.zeros((n, n), dtype=complex)
    out[op.rows, op.cols] = op.vals
    return out


def degree_part(phi: Series, j: int) -> Series:
    """Restriction of phi to words of length exactly j."""
    return phi._like((w, c) for w, c in phi.table.items() if len(w) == j)


def of_word_power(derivation: GeneratorDerivation, w: Word, k: int) -> Series:
    """Value at ``w**k`` as the k-term sum of ``w``-power sandwiches."""
    if k < 1:
        raise ValueError("power must be positive")
    alphabet = derivation.alphabet
    letters = w.letters
    dw = derivation.of_word(w)
    return dw._like(
        (Word._of(alphabet, letters * (k - 1 - m) + u.letters + letters * m), c)
        for m in range(k)
        for u, c in dw.iter_terms()
    )


def conjugate_vanishing_index(w: Word, phi: Series) -> int:
    """Smallest m with the m-fold conjugate transport of phi empty; raises
    when no iterate vanishes by the cap."""
    return len(_conjugate_iterates(w, phi))


def full_isometry_relations(basis: TruncationBasis) -> dict[str, float]:
    """``operators.isometry_relations`` over all m^2 pairs of generator
    shifts, the range sum added one shift at a time.  The shifts are built
    by ``operators.left_matrix`` as looked up at the call, so a fault planted
    there reaches both forms."""
    alphabet = basis.alphabet
    inner_limit = basis.cutoff - 1
    shifts = [
        operators.left_matrix(Series.basis(alphabet.generator(a)), basis)
        for a in alphabet.letters()
    ]
    identity, zero = TruncatedOperator.identity(basis), TruncatedOperator.zero(basis)
    orthogonality = max(
        max_column_deviation(sa.adjoint() @ sb, identity if a == b else zero, inner_limit)
        for a, sa in enumerate(shifts)
        for b, sb in enumerate(shifts)
    )
    range_sum = sum((sa @ sa.adjoint() for sa in shifts), zero)
    complement = identity - q_projection(basis, 0)
    unit_weight = (identity - range_sum).apply(Series.unit(alphabet)).coeff(alphabet.unit())
    return {
        "orthogonality": orthogonality,
        "range_sum": max_column_deviation(range_sum, complement, inner_limit),
        "unit_defect": abs(unit_weight - 1.0),
    }
