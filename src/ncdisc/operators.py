"""Matrix compressions of convolution operators at a degree cutoff.

The compression of an operator T over the cutoff N records the matrix
entries ``<T xi_u, xi_v>`` for all words u, v of length at most N.
Compression does not commute with products, so operator identities are
asserted only on compatible-degree columns: those whose degree leaves
room for every factor to act without leaving the truncated space.
Matrices are stored sparsely as word-indexed entries; the norm estimator
works matrix-free on coordinate arrays built from those entries.
"""

from __future__ import annotations

import csv
import math
from itertools import chain
from typing import IO, Mapping, Optional

import numpy as np

from .series import Series, first_letter_part
from .words import Alphabet, Word, enumerate_words

class PowerIterationError(RuntimeError):
    """Norm estimation did not converge within the iteration cap.

    Raised by :func:`norm_estimate` when the Lanczos iteration reaches
    ``max_iter`` steps with its top Ritz value still moving by more than the
    tolerance; the name is kept for the callers that catch it.
    """


class TruncationBasis:
    """Ordered basis of all words of length <= cutoff, in graded-lex order."""

    __slots__ = ("alphabet", "cutoff", "words", "index")

    def __init__(self, alphabet: Alphabet, cutoff: int):
        if cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        self.alphabet = alphabet
        self.cutoff = cutoff
        self.words = tuple(enumerate_words(alphabet, cutoff))
        self.index = {w: i for i, w in enumerate(self.words)}

    @property
    def dimension(self) -> int:
        return len(self.words)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TruncationBasis)
            and self.alphabet == other.alphabet
            and self.cutoff == other.cutoff
        )

    def __repr__(self) -> str:
        return f"TruncationBasis(m={self.alphabet.size}, cutoff={self.cutoff})"


class TruncatedOperator:
    """Complex matrix over a truncation basis, stored as sparse entries.

    Keys are ``(row, col)`` positions into ``basis.words``; exact zeros are
    never stored.
    """

    __slots__ = ("basis", "entries")

    def __init__(
        self,
        basis: TruncationBasis,
        entries: Optional[Mapping[tuple[int, int], complex]] = None,
    ):
        table: dict[tuple[int, int], complex] = {}
        n = basis.dimension
        if entries:
            for (row, col), value in entries.items():
                if not (0 <= row < n and 0 <= col < n):
                    raise ValueError("entry position outside the basis")
                value = complex(value)
                if value != 0:
                    table[(row, col)] = value
        self.basis = basis
        self.entries = table

    @classmethod
    def zero(cls, basis: TruncationBasis) -> "TruncatedOperator":
        return cls(basis)

    @classmethod
    def identity(cls, basis: TruncationBasis) -> "TruncatedOperator":
        return cls(basis, {(i, i): 1.0 for i in range(basis.dimension)})

    @classmethod
    def from_dense(cls, basis: TruncationBasis, matrix: np.ndarray) -> "TruncatedOperator":
        matrix = np.asarray(matrix)
        n = basis.dimension
        if matrix.shape != (n, n):
            raise ValueError(f"matrix shape {matrix.shape} does not match dimension {n}")
        rows, cols = np.nonzero(matrix)
        return cls(basis, {(int(i), int(j)): complex(matrix[i, j]) for i, j in zip(rows, cols)})

    def _require_same_basis(self, other: "TruncatedOperator") -> None:
        if self.basis != other.basis:
            raise ValueError("operators over different truncation bases")

    def coefficient(self, row_word: Word, col_word: Word) -> complex:
        key = (self.basis.index[row_word], self.basis.index[col_word])
        return self.entries.get(key, 0j)

    def column(self, col_word: Word) -> dict[Word, complex]:
        j = self.basis.index[col_word]
        words = self.basis.words
        return {words[i]: v for (i, jj), v in self.entries.items() if jj == j}

    def __add__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        self._require_same_basis(other)
        table = dict(self.entries)
        for key, value in other.entries.items():
            table[key] = table.get(key, 0j) + value
        return TruncatedOperator(self.basis, table)

    def __neg__(self) -> "TruncatedOperator":
        return TruncatedOperator(self.basis, {k: -v for k, v in self.entries.items()})

    def __sub__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        return self + (-other)

    def __mul__(self, scalar: complex) -> "TruncatedOperator":
        scalar = complex(scalar)
        return TruncatedOperator(self.basis, {k: scalar * v for k, v in self.entries.items()})

    __rmul__ = __mul__

    def __matmul__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        self._require_same_basis(other)
        by_col: dict[int, list[tuple[int, complex]]] = {}
        for (i, j), v in self.entries.items():
            by_col.setdefault(j, []).append((i, v))
        table: dict[tuple[int, int], complex] = {}
        for (j, k), bv in other.entries.items():
            for i, av in by_col.get(j, ()):
                key = (i, k)
                table[key] = table.get(key, 0j) + av * bv
        return TruncatedOperator(self.basis, table)

    def adjoint(self) -> "TruncatedOperator":
        return TruncatedOperator(
            self.basis, {(j, i): v.conjugate() for (i, j), v in self.entries.items()}
        )

    def apply(self, phi: Series) -> Series:
        """Matrix action on the coefficient vector of phi.

        The support of phi must lie inside the basis.
        """
        index = self.basis.index
        words = self.basis.words
        for w in phi.support():
            if w not in index:
                raise ValueError(f"word {w} outside the truncation basis")
        vector = {index[w]: c for w, c in phi.iter_terms()}
        out: dict[Word, complex] = {}
        for (i, j), v in self.entries.items():
            c = vector.get(j)
            if c is not None:
                w = words[i]
                out[w] = out.get(w, 0j) + v * c
        return Series(self.basis.alphabet, out)

    def to_dense(self) -> np.ndarray:
        n = self.basis.dimension
        out = np.zeros((n, n), dtype=complex)
        for (i, j), v in self.entries.items():
            out[i, j] = v
        return out


def left_matrix(phi: Series, basis: TruncationBasis) -> TruncatedOperator:
    """Compression of the left convolution operator with symbol phi.

    Entry at ``(w*u, u)`` is ``phi(w)`` whenever both words fit the cutoff.
    """
    if phi.alphabet != basis.alphabet:
        raise ValueError("series and basis over different alphabets")
    cutoff = basis.cutoff
    index = basis.index
    entries: dict[tuple[int, int], complex] = {}
    for u in basis.words:
        for w, c in phi.iter_terms():
            if len(w) + len(u) <= cutoff:
                entries[(index[w * u], index[u])] = c
    return TruncatedOperator(basis, entries)


def right_matrix(phi: Series, basis: TruncationBasis) -> TruncatedOperator:
    """Compression of the right convolution operator: entry ``phi(w)`` at ``(u*w, u)``."""
    if phi.alphabet != basis.alphabet:
        raise ValueError("series and basis over different alphabets")
    cutoff = basis.cutoff
    index = basis.index
    entries: dict[tuple[int, int], complex] = {}
    for u in basis.words:
        for w, c in phi.iter_terms():
            if len(w) + len(u) <= cutoff:
                entries[(index[u * w], index[u])] = c
    return TruncatedOperator(basis, entries)


def q_projection(basis: TruncationBasis, k: int) -> TruncatedOperator:
    """Diagonal projection onto the span of the words of length exactly k."""
    if k < 0:
        raise ValueError("length must be nonnegative")
    return TruncatedOperator(
        basis,
        {(i, i): 1.0 for i, w in enumerate(basis.words) if len(w) == k},
    )


def degree_band(op: TruncatedOperator, j: int) -> TruncatedOperator:
    """Keep the entries whose row length minus column length equals j.

    Equals the sum of ``Q_k T Q_{k-j}`` over all lengths k in the basis;
    a contractive projection for every band index.
    """
    if abs(j) > op.basis.cutoff:
        raise ValueError("band index exceeds the cutoff")
    words = op.basis.words
    return TruncatedOperator(
        op.basis,
        {
            (i, k): v
            for (i, k), v in op.entries.items()
            if len(words[i]) - len(words[k]) == j
        },
    )


def cesaro_op(op: TruncatedOperator, k: int) -> TruncatedOperator:
    """Fejer-weighted band filter: band j scaled by ``1 - |j|/k``, bands |j| >= k dropped.

    A convex combination of unitary conjugates of the input, hence a
    contraction at every cutoff.
    """
    if k < 1:
        raise ValueError("order must be positive")
    words = op.basis.words
    table: dict[tuple[int, int], complex] = {}
    for (i, jcol), v in op.entries.items():
        band = abs(len(words[i]) - len(words[jcol]))
        if band < k:
            table[(i, jcol)] = v * (1.0 - band / k)
    return TruncatedOperator(op.basis, table)


def norm_estimate(op: TruncatedOperator, tol: float = 1e-9, max_iter: int = 10_000) -> float:
    """Largest singular value via Lanczos on the Gram operator ``A^H A``.

    The Gram operator is applied matrix-free from the coordinate arrays of
    the entries.  Lanczos starts from the deterministic all-ones vector and
    keeps every Lanczos vector fully reorthogonalized; it stops when the top
    Ritz value of the tridiagonal changes by at most ``tol`` (relative)
    between steps, or when the next Lanczos vector vanishes to rounding
    level, so the Krylov space is invariant and the Ritz value exact.  Past
    ``max_iter`` steps it raises :class:`PowerIterationError`.  Ritz values
    never exceed the top eigenvalue, so the estimate is a lower bound for
    the norm up to rounding in the products.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if not op.entries:
        return 0.0
    n = op.basis.dimension
    count = len(op.entries)
    positions = np.fromiter(chain.from_iterable(op.entries), dtype=np.intp, count=2 * count)
    rows, cols = positions[0::2], positions[1::2]
    vals = np.fromiter(op.entries.values(), dtype=complex, count=count)
    conj_vals = vals.conjugate()

    def gram(x: np.ndarray) -> np.ndarray:
        mid = np.zeros(n, dtype=complex)
        np.add.at(mid, rows, vals * x[cols])
        out = np.zeros(n, dtype=complex)
        np.add.at(out, cols, conj_vals * mid[rows])
        return out

    # Lanczos vectors as rows; the storage doubles as needed, never past n
    lanczos = np.empty((min(n, 16), n), dtype=complex)
    lanczos[0] = 1.0 / math.sqrt(n)
    alphas: list[float] = []
    betas: list[float] = []
    previous = None
    for step in range(1, max_iter + 1):
        basis_so_far = lanczos[:step]
        q = basis_so_far[-1]
        w = gram(q)
        alphas.append(float(np.vdot(q, w).real))
        w -= alphas[-1] * q
        if betas:
            w -= betas[-1] * basis_so_far[-2]
        # full reorthogonalization against every Lanczos vector so far
        w -= (basis_so_far @ w.conj()).conj() @ basis_so_far
        beta = float(np.linalg.norm(w))
        tridiagonal = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        ritz = float(np.linalg.eigvalsh(tridiagonal)[-1])
        # rounding in one Gram product is about sqrt(n) eps times its norm
        invariant = step == n or beta <= math.sqrt(n) * np.finfo(float).eps * max(ritz, 0.0)
        settled = previous is not None and abs(ritz - previous) <= tol * max(abs(ritz), 1e-300)
        if invariant or settled:
            return math.sqrt(max(ritz, 0.0))
        previous = ritz
        betas.append(beta)
        if step == len(lanczos):
            grown = np.empty((min(2 * step, n), n), dtype=complex)
            grown[:step] = lanczos
            lanczos = grown
        lanczos[step] = w / beta
    raise PowerIterationError(
        f"Lanczos did not stabilize to {tol} within {max_iter} steps"
    )


def max_column_deviation(
    a: TruncatedOperator,
    b: TruncatedOperator,
    max_col_degree: Optional[int] = None,
) -> float:
    """Largest entrywise |a - b| over the columns of degree <= max_col_degree."""
    a._require_same_basis(b)
    words = a.basis.words
    deviation = 0.0
    for key in set(a.entries) | set(b.entries):
        if max_col_degree is not None and len(words[key[1]]) > max_col_degree:
            continue
        deviation = max(deviation, abs(a.entries.get(key, 0j) - b.entries.get(key, 0j)))
    return deviation


def commutant_check(u: Word, v: Word, basis: TruncationBasis) -> bool:
    """Left shift by u and right shift by v commute, sending xi_w to xi_{uwv}.

    Checked exactly on the columns of degree at most ``cutoff - |u| - |v|``;
    vacuously true when no column fits.
    """
    left = left_matrix(Series.basis(u), basis)
    right = right_matrix(Series.basis(v), basis)
    both = left @ right
    swapped = right @ left
    limit = basis.cutoff - len(u) - len(v)
    for w in basis.words:
        if len(w) > limit:
            continue
        expected = {u * w * v: 1 + 0j}
        if both.column(w) != expected or swapped.column(w) != expected:
            return False
    return True


def isometry_relations(basis: TruncationBasis) -> dict[str, float]:
    """Max deviations of the shift relations on the degree <= cutoff-1 subspace.

    ``orthogonality``: adjoint of one generator shift against another is the
    identity or zero; ``range_sum``: the shift ranges sum to the complement
    of the unit vector; ``unit_defect``: the complement has full weight at
    the unit.  All three vanish exactly away from the top degree.
    """
    if basis.cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    alphabet = basis.alphabet
    inner_limit = basis.cutoff - 1
    shifts = [
        left_matrix(Series.basis(alphabet.generator(a)), basis)
        for a in alphabet.letters()
    ]
    identity = TruncatedOperator.identity(basis)

    orthogonality = 0.0
    for a, sa in enumerate(shifts):
        for b, sb in enumerate(shifts):
            product = sa.adjoint() @ sb
            expected = identity if a == b else TruncatedOperator.zero(basis)
            orthogonality = max(
                orthogonality, max_column_deviation(product, expected, inner_limit)
            )

    range_sum = TruncatedOperator.zero(basis)
    for sa in shifts:
        range_sum = range_sum + sa @ sa.adjoint()
    unit_index = basis.index[alphabet.unit()]
    complement = identity - TruncatedOperator(basis, {(unit_index, unit_index): 1.0})
    range_dev = max_column_deviation(range_sum, complement, inner_limit)

    unit_defect = abs(
        (identity - range_sum).entries.get((unit_index, unit_index), 0j) - 1.0
    )
    return {
        "orthogonality": orthogonality,
        "range_sum": range_dev,
        "unit_defect": unit_defect,
    }


def conjugation_check(
    w: Word, phi: Series, basis: TruncationBasis, tol: float = 1e-12
) -> bool:
    """Sandwiching the compression of phi between the shift by w and its adjoint
    matches the compression of the transported series.

    Requires ``deg(phi) + 2|w| <= cutoff``; compared on the columns of degree
    at most ``cutoff - deg(phi) - 2|w|``.
    """
    from .series import conjugate_by

    deg = 0 if phi.is_zero() else int(phi.degree())
    budget = deg + 2 * len(w)
    if budget > basis.cutoff:
        raise ValueError(
            f"cutoff {basis.cutoff} too small for degree {deg} and |w| = {len(w)}"
        )
    shift = left_matrix(Series.basis(w), basis)
    sandwiched = shift.adjoint() @ left_matrix(phi, basis) @ shift
    transported = left_matrix(conjugate_by(w, phi), basis)
    return max_column_deviation(sandwiched, transported, basis.cutoff - budget) <= tol


def mobius_coefficients(c: float, count: int) -> list[complex]:
    """Taylor coefficients of ``(c - z) / (1 - conj(c) z)`` about zero."""
    c = complex(c)
    if abs(c) >= 1:
        raise ValueError("parameter must lie in the open unit disc")
    coeffs = [c]
    for n in range(1, count):
        coeffs.append((abs(c) ** 2 - 1) * c.conjugate() ** (n - 1))
    return coeffs


def mobius_witness_ratio(c: float, cutoff: int, tol: float = 1e-9) -> float:
    """Norm ratio of constant-term removal on a truncated Toeplitz matrix.

    Single-generator case: the symbol is the Mobius transform with
    parameter c, a sup-norm-one function, and removing its value at zero
    lifts the sup norm to ``1 + |c|``.  The ratio of the truncated matrix
    norms approaches ``1 + |c|`` as the cutoff grows and never exceeds 2.
    """
    alphabet = Alphabet(1)
    gen = alphabet.generator(0)
    coeffs = mobius_coefficients(c, cutoff + 1)
    symbol = Series(alphabet, {gen**n: a for n, a in enumerate(coeffs)})
    basis = TruncationBasis(alphabet, cutoff)
    filtered = first_letter_part(symbol, 0)
    denominator = norm_estimate(left_matrix(symbol, basis), tol)
    numerator = norm_estimate(left_matrix(filtered, basis), tol)
    return numerator / denominator


def write_csv(op: TruncatedOperator, stream: IO[str]) -> None:
    """Dump the nonzero entries as ``row,col,re,im`` rows with word labels."""
    words = op.basis.words
    writer = csv.writer(stream)
    writer.writerow(["row", "col", "re", "im"])
    for i, j in sorted(op.entries):
        value = op.entries[(i, j)]
        writer.writerow([str(words[i]), str(words[j]), repr(value.real), repr(value.imag)])
