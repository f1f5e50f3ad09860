"""Reference forms that only the tests compare against.

Dense matrices of a truncated operator, the degree parts of a series, the
value of a derivation at a power of a word, and the vanishing index of the
conjugate-transport iterates.  No command of the package needs them, so
they live with the tests.
"""

import numpy as np

from ncdisc.derivations import GeneratorDerivation, _conjugate_iterates
from ncdisc.operators import TruncatedOperator, TruncationBasis
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
