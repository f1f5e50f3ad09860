"""Matrix compressions of convolution operators at a degree cutoff.

The compression of an operator T over the cutoff N records the matrix
entries ``<T xi_u, xi_v>`` for all words u, v of length at most N.
Compression does not commute with products, so operator identities are
asserted only on compatible-degree columns: those whose degree leaves
room for every factor to act without leaving the truncated space.
Basis positions are graded-lex ranks computed by formula; matrices are
canonical coordinate arrays of ranks, used directly, and ``_product`` is their action.
Negation, scaling, band filters and Cesaro weights keep the positions and only
drop zeros; sums, differences, products, adjoints and the builders sort.
"""

from __future__ import annotations

import csv
import math
from types import MappingProxyType
from typing import IO, Mapping, Optional

import numpy as np

from .series import Series, conjugate_by, first_letter_part
from .words import Alphabet, Word

#: Matrix entries keyed by (row, col) rank.
Entries = Mapping[tuple[int, int], complex]

#: Largest basis built (m = 2 fits up to cutoff 21): ranks are int64
#: arithmetic, and the norm path's memory is O(n + nnz).  A five-term m = 2
#: symbol at cutoff 21 (n = 4,194,303, 9,961,467 entries) builds and
#: estimates in 47 s of CPU at 1,025 MB peak RSS on a 2-CPU, 8 GB machine
#: with BLAS on one thread; at cutoff 19, 9.8 s and 291 MB.
MAX_DIMENSION = 1 << 22


class PowerIterationError(RuntimeError):
    """Norm estimation did not converge within the iteration cap.

    Raised by :func:`norm_estimate` when the Lanczos iteration reaches
    ``max_iter`` steps with its top Ritz value still moving by more than the
    tolerance; the name is kept for the callers that catch it.
    """


def _count_shorter(m: int, n):
    """Number of words shorter than n over m generators; n may be an array."""
    return n if m == 1 else (m**n - 1) // (m - 1)


def basis_dimension(m: int, cutoff: int) -> int:
    """Number of words of length <= cutoff over m generators; ValueError past MAX_DIMENSION."""
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    # for m >= 2 the count is over budget by length 64, so no larger power is formed
    dimension = _count_shorter(m, (cutoff if m == 1 else min(cutoff, 64)) + 1)
    if dimension > MAX_DIMENSION:
        raise ValueError(f"{m} generators at cutoff {cutoff} give over {MAX_DIMENSION} basis words")
    return dimension


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(start, start + count)`` over the pairs."""
    return np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)


def _product(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    x: np.ndarray,
    out: Optional[np.ndarray] = None,
    gathered: Optional[np.ndarray] = None,
    terms: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``A x`` for entries ``vals`` at ``(rows, cols)``; rows sum in entry order from 0.0.

    Each term is ``np.multiply(vals, x[cols])``, in that operand order at
    every size (the operator ``vals * x[cols]`` is evaluated as
    ``x[cols] * vals`` from 256 KiB of terms up, and a complex multiply is
    not bitwise commutative).  Given ``out`` (length n, which may be x
    itself) and the length-nnz scratch ``gathered`` and ``terms``, the
    product allocates nothing; the gather then wraps instead of checking,
    so the caller has checked that every column lies in ``range(len(x))``.
    """
    if gathered is None:
        gathered = x[cols]
    else:
        x.take(cols, None, gathered, "wrap")
    terms = np.multiply(vals, gathered, out=terms)
    if out is None:
        out = np.zeros(len(x), dtype=terms.dtype)
    else:
        out.fill(0)
    np.add.at(out, rows, terms)
    return out


def _sort_and_sum(coo: list) -> tuple[np.ndarray, np.ndarray]:
    """The entries ``coo = [keys, vals]`` stably sorted by key, each repeated
    key's values summed in entry order.  The list is emptied first, so an
    input array that it alone held is freed once its sorted copy is made."""
    keys, vals = coo
    coo.clear()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    vals = vals[order]
    del order  # freed before the sums, which set the peak memory of every sorting constructor
    heads = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=heads[1:])
    starts = np.flatnonzero(heads)
    keys = keys[starts]  # likewise the sorted keys
    return keys, np.add.reduceat(vals, starts)


class TruncationBasis:
    """All words of length <= cutoff in graded-lex order, ranked by formula.

    The words shorter than n number (m^n - 1)/(m - 1), or n when m = 1, and
    within one length a word's rank is its base-m value; ``rank`` and
    ``word`` convert between the two, and ``lengths[i]`` is the length of
    the word of rank i.  Its rank tables (the offsets, and the powers m^n
    for n <= cutoff + 1) are built once, read-only.
    """

    __slots__ = ("alphabet", "cutoff", "dimension", "lengths", "_offsets", "_powers")

    def __init__(self, alphabet: Alphabet, cutoff: int):
        self.dimension = basis_dimension(alphabet.size, cutoff)
        self.alphabet = alphabet
        self.cutoff = cutoff
        levels = np.arange(cutoff + 2, dtype=np.int64)
        self._powers = alphabet.size**levels
        self._offsets = _count_shorter(alphabet.size, levels)
        self._powers.flags.writeable = self._offsets.flags.writeable = False
        self.lengths = np.repeat(levels[:-1], self._powers[:-1])

    def offsets(self) -> np.ndarray:
        """``offsets()[n]`` is the rank of the first word of length n, n <= cutoff + 1."""
        return self._offsets

    def rank(self, word: Word) -> int:
        if word.alphabet is not self.alphabet or len(word) > self.cutoff:
            raise ValueError(f"word {word} outside the truncation basis")
        m, value = self.alphabet.size, 0
        for letter in word.letters:
            value = value * m + letter
        return _count_shorter(m, len(word)) + value

    def word(self, rank: int) -> Word:
        if not 0 <= rank < self.dimension:
            raise ValueError(f"rank {rank} outside the truncation basis")
        m, n = self.alphabet.size, int(self.lengths[rank])
        value = int(rank) - _count_shorter(m, n)
        return self.alphabet.word(value // m**k % m for k in reversed(range(n)))

    def concat(self, left, right) -> np.ndarray:
        """Ranks of the products ``x*y`` for ranks x, y whose lengths sum to at most the cutoff."""
        offsets = self._offsets
        nx, ny = self.lengths[left], self.lengths[right]
        return offsets[nx + ny] + (left - offsets[nx]) * self._powers[ny] + right - offsets[ny]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TruncationBasis)
            and self.alphabet is other.alphabet
            and self.cutoff == other.cutoff
        )


class TruncatedOperator:
    """Complex matrix over a truncation basis, stored as coordinate arrays.

    ``rows``, ``cols`` and ``vals`` list the entries sorted by (row, col)
    rank, with no repeated position and no exact zero.
    """

    __slots__ = ("basis", "rows", "cols", "vals")

    @classmethod
    def _from_coo(cls, basis: TruncationBasis, rows, cols, vals) -> "TruncatedOperator":
        """The operator of coordinate lists in its canonical form: sorted,
        repeated positions summed, exact zeros dropped."""
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        coo = [rows * basis.dimension + cols, np.asarray(vals, dtype=complex)]
        if not (coo[0][1:] <= coo[0][:-1]).any():
            return cls._from_sorted(basis, rows, cols, coo[1])
        del rows, cols, vals  # the sort's input is held by coo alone
        return cls._from_keys(basis, coo)

    @classmethod
    def _from_keys(cls, basis: TruncationBasis, coo: list) -> "TruncatedOperator":
        """The operator of ``coo = [keys, vals]``, which ``_sort_and_sum`` takes over."""
        keys, vals = _sort_and_sum(coo)
        return cls._from_sorted(basis, *np.divmod(keys, basis.dimension), vals)

    @classmethod
    def _from_sorted(cls, basis: TruncationBasis, rows, cols, vals) -> "TruncatedOperator":
        """Entries sorted by (row, col), no position repeated, with the exact
        zeros dropped; masking copies, so the operator owns its arrays."""
        keep = vals != 0
        op = cls.__new__(cls)
        op.basis, op.rows, op.cols, op.vals = basis, rows[keep], cols[keep], vals[keep]
        return op

    @classmethod
    def zero(cls, basis: TruncationBasis) -> "TruncatedOperator":
        return cls._from_coo(basis, [], [], [])

    @classmethod
    def identity(cls, basis: TruncationBasis) -> "TruncatedOperator":
        return cls._from_coo(basis, *np.diag_indices(basis.dimension), np.ones(basis.dimension))

    @property
    def entries(self) -> Entries:
        """Read-only ``{(row, col): value}`` view, built on each access."""
        positions = zip(self.rows.tolist(), self.cols.tolist())
        return MappingProxyType(dict(zip(positions, self.vals.tolist())))

    def _require_same_basis(self, other: "TruncatedOperator") -> None:
        if self.basis != other.basis:
            raise ValueError("operators over different truncation bases")

    def _with_vals(self, vals: np.ndarray) -> "TruncatedOperator":
        """The same positions holding ``vals``, still sorted; the zeros among them drop out."""
        return self._from_sorted(self.basis, self.rows, self.cols, vals)

    def _merged(self, other: "TruncatedOperator", other_vals: np.ndarray) -> list:
        """``[keys, vals]`` of self's entries, then other's positions holding ``other_vals``."""
        self._require_same_basis(other)
        n = self.basis.dimension
        keys = np.concatenate([self.rows * n + self.cols, other.rows * n + other.cols])
        return [keys, np.concatenate([self.vals, other_vals])]

    def band_lengths(self) -> np.ndarray:
        """Row length minus column length, per entry."""
        lengths = self.basis.lengths
        return lengths[self.rows] - lengths[self.cols]

    def __add__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        return TruncatedOperator._from_keys(self.basis, self._merged(other, other.vals))

    def __neg__(self) -> "TruncatedOperator":
        return self._with_vals(-self.vals)

    def __sub__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        return TruncatedOperator._from_keys(self.basis, self._merged(other, -other.vals))

    def __mul__(self, scalar: complex) -> "TruncatedOperator":
        return self._with_vals(self.vals * complex(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        self._require_same_basis(other)
        # each entry (i, j) of self meets the run of other's row j
        first = np.searchsorted(other.rows, self.cols, "left")
        counts = np.searchsorted(other.rows, self.cols, "right") - first
        left = np.repeat(np.arange(len(self.vals)), counts)
        right = _ranges(first, counts)
        return TruncatedOperator._from_coo(
            self.basis, self.rows[left], other.cols[right], self.vals[left] * other.vals[right]
        )

    def adjoint(self) -> "TruncatedOperator":
        return TruncatedOperator._from_coo(self.basis, self.cols, self.rows, self.vals.conj())

    def apply(self, phi: Series) -> Series:
        """Matrix action on the coefficient vector of phi, whose support must lie in the basis."""
        basis = self.basis
        vector = np.zeros(basis.dimension, dtype=complex)
        for w, c in phi.iter_terms():
            vector[basis.rank(w)] = c
        out = _product(self.rows, self.cols, self.vals, vector)
        return Series(basis.alphabet, {basis.word(i): out[i] for i in np.flatnonzero(out)})


def _convolution_matrix(phi: Series, basis: TruncationBasis, on_left: bool) -> TruncatedOperator:
    """Entry ``phi(w)`` at ``(w*u, u)``, or at ``(u*w, u)`` if not on_left, wherever both fit."""
    if phi.alphabet is not basis.alphabet:
        raise ValueError("series and basis over different alphabets")
    terms = [(basis.rank(w), c) for w, c in phi.iter_terms() if len(w) <= basis.cutoff]
    ranks = np.array([r for r, _ in terms], dtype=np.int64)
    # the columns u with |w| + |u| <= cutoff are the ranks below offsets[cutoff + 1 - |w|]
    fits = basis.offsets()[basis.cutoff + 1 - basis.lengths[ranks]]
    cols = _ranges(np.zeros_like(fits), fits)
    words = np.repeat(ranks, fits)
    rows = basis.concat(words, cols) if on_left else basis.concat(cols, words)
    return TruncatedOperator._from_coo(basis, rows, cols, np.repeat([c for _, c in terms], fits))


def left_matrix(phi: Series, basis: TruncationBasis) -> TruncatedOperator:
    """Compression of the left convolution operator: entry ``phi(w)`` at ``(w*u, u)``."""
    return _convolution_matrix(phi, basis, on_left=True)


def right_matrix(phi: Series, basis: TruncationBasis) -> TruncatedOperator:
    """Compression of the right convolution operator: entry ``phi(w)`` at ``(u*w, u)``."""
    return _convolution_matrix(phi, basis, on_left=False)


def q_projection(basis: TruncationBasis, k: int) -> TruncatedOperator:
    """Diagonal projection onto the span of the words of length exactly k."""
    if k < 0:
        raise ValueError("length must be nonnegative")
    diagonal = np.flatnonzero(basis.lengths == k)
    return TruncatedOperator._from_coo(basis, diagonal, diagonal, np.ones(len(diagonal)))


def degree_band(op: TruncatedOperator, j: int) -> TruncatedOperator:
    """Keep the entries whose row length minus column length equals j.

    Equals the sum of ``Q_k T Q_{k-j}`` over all lengths k in the basis;
    a contractive projection for every band index.
    """
    if abs(j) > op.basis.cutoff:
        raise ValueError("band index exceeds the cutoff")
    return op._with_vals(np.where(op.band_lengths() == j, op.vals, 0))


def cesaro_op(op: TruncatedOperator, k: int) -> TruncatedOperator:
    """Fejer-weighted band filter: band j scaled by ``1 - |j|/k``, bands |j| >= k dropped.

    A convex combination of unitary conjugates of the input, hence a
    contraction at every cutoff.
    """
    if k < 1:
        raise ValueError("order must be positive")
    band = np.abs(op.band_lengths())
    return op._with_vals(np.where(band < k, op.vals * (1.0 - band / k), 0))


def norm_estimate(op: TruncatedOperator, tol: float = 1e-9, max_iter: int = 10_000) -> float:
    """Largest singular value via Lanczos on the Gram operator ``A^H A``.

    The Gram operator is applied matrix-free from the coordinate arrays.
    One run of the plain three-term recurrence starts from the normalized
    fractional parts of ``j * golden ratio`` minus 1/2: deterministic, and
    in general position, so it meets the top eigenspace (Paige 1980; Parlett
    1998).  It holds the last two Lanczos vectors and the tridiagonal, so
    its memory is O(n + nnz).  Without reorthogonalization the top Ritz
    value still converges to rounding, and by Cauchy interlacing it never
    decreases.  The run stops when that value changes by at most ``tol``
    (relative) between steps, or when the next Lanczos vector vanishes to
    rounding level, so the Krylov space is invariant and the Ritz value
    exact on it; past ``max_iter`` steps it raises
    :class:`PowerIterationError`.  Ritz values never exceed the top
    eigenvalue, so the estimate is a lower bound for the norm up to rounding.

    Inner products and norms are numpy reductions of fixed order, not BLAS
    calls, so the bits do not depend on the BLAS thread count.  A step
    allocates no vector: it writes into one workspace made at entry, a
    complex array of length nnz, one of length max(n, nnz) shared by the
    Gram product's terms and the step's scaled vectors, and three complex
    vectors of length n, next to the conjugate values (length nnz); the
    start vector is built in place, with the range 1..n as its one
    temporary.  The vectors are held as float parts and only the Gram
    product sees them as complex, so every step operation with a real
    scalar is a float operation.  That keeps the bits: numpy computes
    complex / real as ``(a + b*0) * (1/beta)`` and complex * real as
    ``(alpha + 0j) * q``, which differ from the float forms only in the
    sign of an exact zero, and no later sum from 0.0 keeps that sign.  Its
    gathers wrap instead of checking, after one check per call that every
    entry lies in the basis (``IndexError`` otherwise).
    """
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not op.vals.size:
        return 0.0
    n = op.basis.dimension
    rows, cols, vals, conj_vals = op.rows, op.cols, op.vals, op.vals.conjugate()
    eps = np.finfo(float).eps
    # the one range check that the workspace's wrapping gathers rely on
    for indices in (rows, cols):
        if indices.min() < 0 or indices.max() >= n:
            raise IndexError(f"operator entry outside the {n} basis positions")
    # the workspace: the Gram product's gather scratch; one buffer for its
    # terms, then for the step's scaled vectors and inner products' terms;
    # and three vectors held as float parts, real and imaginary interleaved:
    # the product's output w, whose complex view is ``gram``, and the current
    # Lanczos vector q and the one before it, which swap by reference
    shared = np.empty(max(n, len(vals)), dtype=complex)
    scratch = (np.empty(len(vals), dtype=complex), shared[: len(vals)])
    terms = shared[:n].view(float)
    w, q, before = (np.empty(2 * n) for _ in range(3))
    gram = w.view(complex)

    def inner(x: np.ndarray, y: np.ndarray) -> float:
        """``Re <x, y>`` of two vectors' parts: their products, in ``terms``,
        summed in numpy's fixed order."""
        return float(np.add.reduce(np.multiply(x, y, out=terms)))

    # the start, built in q's real parts; the integral parts go to w, which
    # the first product overwrites, so its one temporary is the range 1..n
    q.fill(0)
    start = np.multiply(np.arange(1.0, n + 1), (1 + math.sqrt(5)) / 2, out=q[::2])
    np.modf(start, out=(start, w[::2]))
    start -= 0.5
    q *= 1.0 / math.sqrt(inner(q, q))
    # tri[:k + 1, :k + 1] is the tridiagonal after step k, grown by doubling
    tri = np.zeros((16, 16))
    previous = None
    for k in range(max_iter):
        # w = A^H (A q), through the complex views
        _product(rows, cols, vals, q.view(complex), gram, *scratch)
        _product(cols, rows, conj_vals, gram, gram, *scratch)
        tri[k, k] = inner(q, w)
        w -= np.multiply(q, tri[k, k], out=terms)
        if k:  # before is not read at the first step
            w -= np.multiply(before, tri[k, k - 1], out=terms)
        beta = math.sqrt(inner(w, w))
        ritz = float(np.linalg.eigvalsh(tri[: k + 1, : k + 1])[-1])
        # rounding in one Gram product is about sqrt(n) eps times its norm
        invariant = beta <= math.sqrt(n) * eps * ritz
        settled = previous is not None and abs(ritz - previous) <= tol * max(abs(ritz), 1e-300)
        if invariant or settled:
            return math.sqrt(max(ritz, 0.0))
        if k + 1 == len(tri):
            grown = np.zeros((2 * len(tri), 2 * len(tri)))
            grown[: k + 1, : k + 1] = tri
            tri = grown
        tri[k, k + 1] = tri[k + 1, k] = beta
        np.multiply(w, 1.0 / beta, out=before)
        q, before = before, q
        previous = ritz
    raise PowerIterationError(f"Lanczos did not stabilize to {tol} within {max_iter} steps")


def max_column_deviation(
    a: TruncatedOperator, b: TruncatedOperator, max_col_degree: Optional[int] = None
) -> float:
    """Largest entrywise |a - b| over the columns of degree <= max_col_degree.

    Only the kept columns' entries of ``a - b`` are summed, as ``a - b`` sums them.
    """
    coo = a._merged(b, -b.vals)
    if max_col_degree is not None:
        kept = a.basis.lengths[coo[0] % a.basis.dimension] <= max_col_degree
        coo = [coo[0][kept], coo[1][kept]]
    return float(np.abs(_sort_and_sum(coo)[1]).max(initial=0.0))


def commutant_check(u: Word, v: Word, basis: TruncationBasis) -> bool:
    """Left shift by u and right shift by v commute, sending xi_w to xi_{uwv}.

    Checked exactly on the columns of degree at most ``cutoff - |u| - |v|``;
    vacuously true when no column fits.
    """
    left = left_matrix(Series.basis(u), basis)
    right = right_matrix(Series.basis(v), basis)
    limit = basis.cutoff - len(u) - len(v)
    if limit < 0:
        return True
    fitting = np.arange(basis.offsets()[limit + 1])
    target = basis.concat(basis.rank(u), basis.concat(fitting, basis.rank(v)))
    expected = TruncatedOperator._from_coo(basis, target, fitting, np.ones(len(fitting)))
    products = (left @ right, right @ left)
    return all(max_column_deviation(p, expected, limit) == 0.0 for p in products)


def isometry_relations(basis: TruncationBasis) -> dict[str, float]:
    """Max deviations of the shift relations on the degree <= cutoff-1 subspace.

    ``orthogonality``: adjoint of one generator shift against another is the
    identity or zero; ``range_sum``: the shift ranges sum to the complement
    of the unit vector; ``unit_defect``: the complement has full weight at
    the unit.  All three vanish exactly away from the top degree.  A letter
    permutation s is a unitary P with ``P L_a P* = L_{sa}`` that keeps column
    degrees, so the pairs (top, top) and (top, 0) decide orthogonality.
    """
    if basis.cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    alphabet = basis.alphabet
    inner_limit = basis.cutoff - 1
    shifts = [left_matrix(Series.basis(alphabet.generator(a)), basis) for a in alphabet.letters()]
    identity, zero = TruncatedOperator.identity(basis), TruncatedOperator.zero(basis)
    top = shifts[-1]
    orthogonality = max(
        max_column_deviation(top.adjoint() @ sb, identity if sb is top else zero, inner_limit)
        for sb in (top, shifts[0])
    )
    ranges = [(p.rows, p.cols, p.vals) for p in (sa @ sa.adjoint() for sa in shifts)]
    range_sum = TruncatedOperator._from_coo(basis, *map(np.concatenate, zip(*ranges)))
    # the unit vector spans the range of the length-0 projection
    complement = identity - q_projection(basis, 0)
    unit_weight = (identity - range_sum).apply(Series.unit(alphabet)).coeff(alphabet.unit())
    return {
        "orthogonality": orthogonality,
        "range_sum": max_column_deviation(range_sum, complement, inner_limit),
        "unit_defect": abs(unit_weight - 1.0),
    }


def conjugation_check(w: Word, phi: Series, basis: TruncationBasis) -> bool:
    """Sandwiching the compression of phi between the shift by w and its adjoint
    matches the compression of the transported series.

    Requires ``deg(phi) + 2|w| <= cutoff``; compared on the columns of degree
    at most ``cutoff - deg(phi) - 2|w|``.  The comparison is exact because
    the identity is exact in floating point for any coefficients:
    each entry of the sandwich is one entry ``L[wu, wv]`` times the shifts'
    unit entries, and ``transport`` is injective, so ``conjugate_by`` never
    adds two coefficients.
    """
    deg = 0 if phi.is_zero() else int(phi.degree())
    budget = deg + 2 * len(w)
    if budget > basis.cutoff:
        raise ValueError(f"cutoff {basis.cutoff} too small for degree {deg} and |w| = {len(w)}")
    shift = left_matrix(Series.basis(w), basis)
    sandwiched = shift.adjoint() @ left_matrix(phi, basis) @ shift
    transported = left_matrix(conjugate_by(w, phi), basis)
    return max_column_deviation(sandwiched, transported, basis.cutoff - budget) == 0.0


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
    if denominator == 0:
        raise ValueError(f"the Mobius symbol at c={c} has zero compression at cutoff {cutoff}")
    numerator = norm_estimate(left_matrix(filtered, basis), tol)
    return numerator / denominator


def write_csv(op: TruncatedOperator, stream: IO[str]) -> None:
    """Dump the entries as ``row,col,re,im`` rows with word labels, in (row, col) rank order."""
    word = op.basis.word
    writer = csv.writer(stream)
    writer.writerow(["row", "col", "re", "im"])
    for i, j, value in zip(op.rows.tolist(), op.cols.tolist(), op.vals.tolist()):
        writer.writerow([str(word(i)), str(word(j)), repr(value.real), repr(value.imag)])
