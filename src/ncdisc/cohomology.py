"""Hochschild cochain complex with scalar coefficients.

Cochains are finitely supported coefficient tables on tuples of words,
representing multilinear functionals on the span of the basis shifts with
values in the scalars.  They share the coefficient-table core of
``series``: the arity and the tuple keys are checked once, at the public
constructor, and the homotopy builds its result through the core's
sum-and-prune step.  The coboundary runs the same sum and the same prune
test as one numpy kernel: each term of an input key spells the key's
letter string and differs only in its cut positions, so it is coded as
an int64 of the string's id and its cuts, and ``Word`` objects are built
only for the keys that survive.  The JSON reader of the core parses each
distinct word text once per input.  Both module actions multiply by the
coefficient at the unit word, so the bimodule is symmetric and the
degree-zero coboundary vanishes.  The coboundary of a table is again a
finitely supported table, and every cocycle of arity at least two is
trivialized by an explicit homotopy that cuts the first word after its
first letter.
"""

from __future__ import annotations

import functools
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .series import (
    PRUNE_EPS,
    CoefficientTable,
    Series,
    adjoint_shift,
    first_letter_part,
)
from .words import Alphabet, Word, _index, enumerate_words

WordTuple = tuple[Word, ...]


class NonCocycleError(ValueError):
    """A cochain whose coboundary is nonzero where a cocycle was required."""

    def __init__(self, message: str, witness: Optional[WordTuple] = None):
        super().__init__(message)
        self.witness = witness


def cut(w: Word) -> tuple[Word, Word]:
    """Split off the first letter: ``w == first * rest``, with first the unit
    only for the unit word."""
    return Word._of(w.alphabet, w.letters[:1]), Word._of(w.alphabet, w.letters[1:])


def module_left(gamma: complex, phi: Series) -> complex:
    """Module action of a series on a scalar: multiply by the unit weight.

    The right action is the same product, so the bimodule is symmetric."""
    return complex(gamma) * phi.coeff(phi.alphabet.unit())


class Cochain(CoefficientTable):
    """Finitely supported table on n-tuples of words; arity zero is a scalar."""

    __slots__ = ("arity",)

    _KEY_FIELD = "words"

    def __init__(
        self,
        arity: int,
        alphabet: Alphabet,
        table: Optional[Mapping[WordTuple, complex]] = None,
    ):
        arity = _index(arity, "arity")
        if arity < 0:
            raise ValueError("arity must be nonnegative")
        self.arity = arity
        super().__init__(alphabet, table)

    def _check_key(self, key: WordTuple) -> WordTuple:
        key = tuple(key)
        if len(key) != self.arity:
            raise ValueError(f"key {key} does not have arity {self.arity}")
        for w in key:
            if not isinstance(w, Word) or w.alphabet is not self.alphabet:
                raise ValueError(f"key word {w!r} is not a word over {self.alphabet}")
        return key

    def _shape(self) -> tuple:
        return (self.arity, self.alphabet)

    @staticmethod
    def _sort_key(key: WordTuple) -> tuple:
        """Tuple-lexicographic in the word order."""
        return tuple(w.sort_key() for w in key)

    @staticmethod
    def _key_text(key: WordTuple) -> list[str]:
        return [str(w) for w in key]

    @staticmethod
    def _parse_key(parse: Callable[[str], Word], texts: list[str]) -> WordTuple:
        if not isinstance(texts, list):
            raise ValueError(f"cochain key {texts!r} is not a list of words")
        return tuple(map(parse, texts))

    @classmethod
    def scalar(cls, alphabet: Alphabet, value: complex) -> "Cochain":
        return cls(0, alphabet, {(): value})

    def scalar_value(self) -> complex:
        if self.arity != 0:
            raise ValueError("not an arity-zero cochain")
        return self.table.get((), 0j)

    def evaluate(self, *args: Series) -> complex:
        """Multilinear extension: weight each table entry by the argument
        coefficients at its words."""
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(args)}")
        total = 0j
        for key, c in self.table.items():
            factor = c
            for series, w in zip(args, key):
                factor *= series.coeff(w)
                if factor == 0:
                    break
            total += factor
        return total

    def __repr__(self) -> str:
        return f"Cochain(arity={self.arity}, terms={len(self.table)})"

    def to_json_dict(self) -> dict:
        return {"arity": self.arity, **super().to_json_dict()}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Cochain":
        return cls._from_json_terms((data["arity"], Alphabet(data["alphabet"])), data)


#: Largest int64; a cut code that could pass it is re-ranked first.
_CODE_MAX = int(np.iinfo(np.int64).max)


def _append_digit(codes: np.ndarray, digits: np.ndarray, radix: int) -> np.ndarray:
    """``codes * radix + digits`` for digits below ``radix``.  Codes that
    could overflow int64 are first replaced by their dense ranks, which keep
    equal codes equal and distinct codes distinct."""
    if int(codes.max()) > (_CODE_MAX - (radix - 1)) // radix:
        codes = np.unique(codes, return_inverse=True)[1]
    return codes * radix + digits


def _summed_cut_terms(
    string_ids: np.ndarray, bounds: np.ndarray, coeffs: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The coboundary's sum and prune over cut-position codes.

    Input key k spells the letter string with id ``string_ids[k]``, cut at
    ``bounds[k] = (0, |w1|, |w1 w2|, ..., |S|)``.  Its terms form a block
    of ``|S| + n + 2``: the leading unit, then for each slot i the cuts
    p = ``bounds[k, i] .. bounds[k, i + 1]`` at offset ``1 + i + p``, then
    the trailing unit.  The two units have the keys of slot 0 cut at 0 and
    of slot n-1 cut at |S|.  A term's output key is its string and the
    input bounds with p inserted, coded in mixed radix ``max|S| + 1``.
    ``np.bincount`` sums each key's terms in generation order, as the table
    core would.

    Returns the input key, slot and cut of each surviving output key's
    first term, in order of first occurrence, and the real and imaginary
    parts of its sum.
    """
    n = bounds.shape[1] - 1
    lengths = bounds[:, n]
    sizes = lengths + n + 2
    starts = np.cumsum(sizes) - sizes
    owner = np.repeat(np.arange(len(sizes)), sizes)
    local = np.arange(owner.size) - starts[owner]
    slot = np.zeros_like(local)
    for i in range(1, n):
        slot += local >= (1 + i + bounds[:, i])[owner]
    cut_at = np.clip(local - 1 - slot, 0, lengths[owner])
    del local

    sign = np.where(slot % 2 == 0, -1.0, 1.0)
    sign[starts] = 1.0
    sign[starts + sizes - 1] = 1.0 if (n + 1) % 2 == 0 else -1.0
    codes = string_ids[owner]
    radix = int(lengths.max()) + 1
    for j in range(n):
        before = bounds[owner, j + 1]
        after = bounds[owner, j]
        digits = np.where(j < slot, before, np.where(j == slot, cut_at, after))
        codes = _append_digit(codes, digits, radix)
    del before, after, digits

    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    del codes
    re = np.bincount(inverse, weights=sign * coeffs.real[owner])
    im = np.bincount(inverse, weights=sign * coeffs.imag[owner])
    kept = np.flatnonzero(~(np.hypot(re, im) <= PRUNE_EPS))
    kept = kept[np.argsort(first[kept])]
    at = first[kept]
    return owner[at], slot[at], cut_at[at], re[kept], im[kept]


def coboundary(phi: Cochain) -> Cochain:
    """The coboundary of an n-cochain as an (n+1)-cochain table.

    On word tuples the value is the unit weight of the first slot times the
    remaining evaluation, minus-plus the alternating sum over adjacent
    products, plus the sign ``(-1)^(n+1)`` times the unit weight of the
    last slot.  The output support enumerates, for each support word, all
    of its two-factor splittings, so no truncation is involved.  Degree
    zero maps to the zero one-cochain: the scalar bimodule is symmetric.

    Every term from an input key spells the same letter string S as that
    key; only its n cut positions differ.  So each distinct S gets an int
    id, each term the code of its id and cuts, and one array kernel sums
    the terms by code in the order the formula generates them, then prunes
    with the table core's test.  ``Word`` objects are built only for the
    keys that survive, one per distinct letter tuple.
    """
    n = phi.arity
    alphabet = phi.alphabet
    out = Cochain(n + 1, alphabet)
    if n == 0 or not phi.table:
        return out
    strings: dict[tuple[int, ...], int] = {}
    spelled = []
    string_ids = []
    bounds = []
    for key in phi.table:
        letters: tuple[int, ...] = ()
        row = [0]
        for w in key:
            letters += w.letters
            row.append(len(letters))
        spelled.append(letters)
        string_ids.append(strings.setdefault(letters, len(strings)))
        bounds.append(row)
    coeffs = np.fromiter(phi.table.values(), complex, len(bounds))
    summed = _summed_cut_terms(np.array(string_ids), np.array(bounds), coeffs)

    word = functools.cache(functools.partial(Word._of, alphabet))
    table = {}
    for k, i, p, re, im in zip(*(column.tolist() for column in summed)):
        row = bounds[k]
        cuts = (*row[: i + 1], p, *row[i + 1 :])
        s = spelled[k]
        table[tuple(word(s[a:b]) for a, b in zip(cuts, cuts[1:]))] = complex(re, im)
    out.table = table
    return out


def is_cocycle(phi: Cochain) -> bool:
    return coboundary(phi).is_zero()


def first_cocycle_violation(phi: Cochain) -> Optional[WordTuple]:
    """Least tuple where the coboundary is nonzero, or None for a cocycle."""
    boundary = coboundary(phi)
    if boundary.is_zero():
        return None
    return min(boundary.table, key=Cochain._sort_key)


def homotopy(phi: Cochain) -> Cochain:
    """For a cocycle of arity n >= 2, an (n-1)-cochain psi with coboundary phi.

    Cut the first word after its first letter:

        psi(w1, ...) = -phi(first(w1), rest(w1), ...)   for w1 != e,
        psi(e,  ...) =  phi(e, e, ...).

    Non-cocycles are rejected with the least violating tuple as witness.
    """
    if phi.arity < 2:
        raise ValueError("homotopy needs arity at least 2")
    witness = first_cocycle_violation(phi)
    if witness is not None:
        raise NonCocycleError(
            f"not a cocycle: coboundary is nonzero at ({', '.join(str(w) for w in witness)})",
            witness=witness,
        )
    e = phi.alphabet.unit()

    def terms():
        for (s1, s2, *tail), c in phi.table.items():
            if len(s1) == 1:
                yield (s1 * s2, *tail), -c
            elif s1 == e and s2 == e:
                yield (e, *tail), c

    return Cochain._from_valid((phi.arity - 1, phi.alphabet), terms())


def homotopy_on_series(phi: Cochain, args: Sequence[Series]) -> complex:
    """Evaluate the homotopy of a cocycle on series arguments directly.

    Filter the first argument by its leading letter, strip that letter, and
    feed both through the cocycle; the unit weight of the first argument
    contributes through the doubled-unit slot.  Agrees with the multilinear
    extension of :func:`homotopy` on every argument tuple.
    """
    if len(args) != phi.arity - 1:
        raise ValueError(f"expected {phi.arity - 1} arguments, got {len(args)}")
    alphabet = phi.alphabet
    first = args[0]
    rest = args[1:]
    total = 0j
    for a in alphabet.letters():
        gen = alphabet.generator(a)
        stripped = adjoint_shift(gen, first_letter_part(first, a))
        total -= phi.evaluate(Series.basis(gen), stripped, *rest)
    unit = Series.unit(alphabet)
    total += first.coeff(alphabet.unit()) * phi.evaluate(unit, unit, *rest)
    return total


def generator_cocycles(alphabet: Alphabet) -> list[Cochain]:
    """The canonical one-cocycles: weight one at a single generator.

    None is a coboundary since the degree-zero coboundary vanishes, and
    they are linearly independent, one per generator.
    """
    return [
        Cochain(1, alphabet, {(alphabet.generator(a),): 1.0})
        for a in alphabet.letters()
    ]


def one_cocycle_constraints(
    alphabet: Alphabet, max_len: int
) -> tuple[np.ndarray, list[Word]]:
    """Linear system cutting out the one-cocycles supported on short words.

    Variables are the coefficients at words of length <= max_len; each row
    is the cocycle condition at a pair (u, v) with every term inside the
    support window.  Returns the constraint matrix and the variable order.
    """
    words = enumerate_words(alphabet, max_len)
    index = {w: i for i, w in enumerate(words)}
    e = alphabet.unit()
    pairs: set[tuple[Word, Word]] = set()
    for w in words:
        pairs.add((e, w))
        pairs.add((w, e))
    for u in words:
        for v in words:
            if len(u) + len(v) <= max_len:
                pairs.add((u, v))
    rows = []
    for u, v in sorted(pairs, key=lambda p: (p[0].sort_key(), p[1].sort_key())):
        row = np.zeros(len(words))
        if u == e:
            row[index[v]] += 1.0
        if len(u) + len(v) <= max_len:
            row[index[u * v]] -= 1.0
        if v == e:
            row[index[u]] += 1.0
        rows.append(row)
    return np.array(rows), words


def one_cocycle_dimension(alphabet: Alphabet, max_len: int) -> int:
    """Dimension of the space of one-cocycles supported on words of length
    <= max_len; equals the number of generators."""
    matrix, words = one_cocycle_constraints(alphabet, max_len)
    rank = int(np.linalg.matrix_rank(matrix))
    return len(words) - rank
