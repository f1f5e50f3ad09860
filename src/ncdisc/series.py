"""Finitely supported complex series on a free semigroup, their dict core,
and the rules for JSON terms that cochains share.

A series plays two roles: a vector in the square-summable sequence space
over the semigroup, and the symbol of the convolution operator it induces
there.  The product is convolution,

    (phi * psi)(w) = sum over prefixes u of w of phi(u) * psi(u^{-1} w),

which on basis elements is concatenation: ``xi_u * xi_v = xi_{uv}``.

``CoefficientTable`` is the sparse core behind ``Series``: a dict from
words to complex coefficients, with one canonical step -- sum repeated
keys, then drop coefficients of magnitude at most ``PRUNE_EPS``, so that
cancellation leaves no dust -- plus the linear structure and equality.
Keys and coefficients are checked once, by the public constructor
(``_checked``, which ``cohomology.Cochain`` runs too), which refuses a key
over another alphabet and a NaN or infinite coefficient.  Results of
operations are built from keys that are already valid through the
internal ``_from_valid`` constructor, which runs only the canonical step.
The series reader reads a value in stages, each over all its terms -- the
term objects, the word texts in one grammar match
(``words._texts_letters``), the coefficient parts, one canonical step --
and refuses a non-finite coefficient after the sum, so terms in float
range that overflow together are refused too.  ``conjugate_by`` and
``adjoint_shift`` are one canonical step over the term streams
``_transported`` and ``_shifted``, which the solver of ``derivations``
walks without a series per step.  Cochains store cut codes instead, summed
and pruned exactly as ``_sum_and_prune`` would; their reader checks parts
and sizes by this module's rules (JSON ``true`` is not a size).
"""

from __future__ import annotations

import cmath
import math
from itertools import chain
from typing import Callable, Hashable, Iterable, ItemsView, Iterator, Mapping, Optional

from .words import Alphabet, Word, _check_letter, _index, _texts_letters, transport

PRUNE_EPS = 1e-14

#: Degree of the zero series; keeps max-degree arithmetic total.
ZERO_DEGREE = float("-inf")

Terms = Iterable[tuple[Hashable, complex]]


def _sum_and_prune(terms: Terms) -> dict:
    """The canonical step: sum repeated keys, then drop |c| <= PRUNE_EPS.

    A NaN (past the boundary check only an overflow or a non-finite scalar
    can make one) is kept in sight rather than dropped.  A finite coefficient
    whose modulus is past the float range makes ``abs`` raise; only then is
    the prune redone with ``math.hypot``, whose modulus is inf, so it is kept.
    """
    table: dict = {}
    for key, value in terms:
        table[key] = table.get(key, 0j) + value
    # dropped in place, so that only the pruned keys are hashed again
    try:
        pruned = [key for key, c in table.items() if abs(c) <= PRUNE_EPS]
    except OverflowError:
        pruned = [key for key, c in table.items() if math.hypot(c.real, c.imag) <= PRUNE_EPS]
    for key in pruned:
        del table[key]
    return table


def _checked(terms: Terms, check_key: Callable) -> Terms:
    """The boundary check of a public constructor: each key valid by
    ``check_key``, each coefficient finite."""
    for key, value in terms:
        value = complex(value)
        if not cmath.isfinite(value):
            raise ValueError(f"non-finite coefficient {value} at {key}")
        yield check_key(key), value


#: The types ``json`` reads a JSON number as; ``bool`` is not one of them.
_JSON_NUMBERS = (int, float)


def _json_int(value: object, what: str) -> int:
    """A size read from JSON: an integer, never ``true`` or ``false``."""
    if isinstance(value, bool):
        raise ValueError(f"{what} {value!r} is not an integer")
    return _index(value, what)


#: The JSON name of each container type a reader asks for.
_JSON_KINDS = {dict: "object", list: "list", str: "string"}


def _json_typed(value: object, kind: type, what: str):
    """``value``, refused with a message naming ``what`` unless JSON gave it type ``kind``."""
    if type(value) is not kind:
        raise ValueError(f"{what} must be a JSON {_JSON_KINDS[kind]}, not {value!r:.60}")
    return value


def _json_terms(data: Mapping) -> list[dict]:
    """The objects of ``data["terms"]``, a JSON list that may be absent; the
    first term that is not an object is refused."""
    terms = _json_typed(data.get("terms", []), list, "terms")
    if not set(map(type, terms)).issubset((dict,)):
        for term in terms:
            _json_typed(term, dict, "a term")
    return terms


def _json_parts(term: Mapping) -> tuple[float, float]:
    """The coefficient parts of a JSON term: ``re`` and an optional ``im``,
    each a JSON number, never a string or a boolean."""
    re, im = term["re"], term.get("im", 0.0)
    if type(re) not in _JSON_NUMBERS or type(im) not in _JSON_NUMBERS:
        raise ValueError(f"coefficient parts {re!r}, {im!r} are not both JSON numbers")
    return re, im


def _json_part_lists(terms: list[Mapping]) -> tuple[list, list]:
    """The ``re`` parts and the ``im`` parts of JSON terms, checked as
    ``_json_parts`` checks one term, but in whole-list passes; on a fault,
    the first faulty term raises its own message."""
    try:
        parts = [term["re"] for term in terms], [term.get("im", 0.0) for term in terms]
        if set(map(type, chain(*parts))).issubset(_JSON_NUMBERS):
            return parts
    except KeyError:
        pass
    for term in terms:
        _json_parts(term)
    raise AssertionError("unreachable: every term has two JSON number parts")


def _json_coefficients(terms: list[Mapping]) -> list[complex]:
    """The coefficients of JSON terms: every term's parts checked by
    ``_json_part_lists`` first, then each pair made complex."""
    re, im = _json_part_lists(terms)
    try:
        return list(map(complex, re, im))
    except OverflowError as err:
        raise ValueError(f"coefficient out of range: {err}") from None


class CoefficientTable:
    """Immutable finitely supported map from keys to complex coefficients.

    A subclass says how a key is checked (``_check_key``) and ordered
    (``_sort_key``), and how the table is written in JSON (``to_json_dict``).
    ``_shape`` gives the public constructor's leading arguments; tables of
    one shape can be added and compared.
    """

    __slots__ = ("alphabet", "table")

    def __init__(self, alphabet: Alphabet, coeffs: Optional[Mapping] = None):
        self.alphabet = alphabet
        self.table = _sum_and_prune(_checked(coeffs.items(), self._check_key)) if coeffs else {}

    def _shape(self) -> tuple:
        return (self.alphabet,)

    @classmethod
    def _from_valid(cls, shape: tuple, terms: Terms):
        """Internal constructor: ``shape`` as ``_shape()`` gives it, and keys
        already valid for it; only the canonical step runs."""
        out = cls(*shape)
        out.table = _sum_and_prune(terms)
        return out

    def _like(self, terms: Terms):
        """Internal constructor for a result of this table's shape."""
        return self._from_valid(self._shape(), terms)

    def _require_same_shape(self, other: "CoefficientTable") -> None:
        if type(other) is not type(self) or self._shape() != other._shape():
            raise ValueError(f"{type(self).__name__} operands of different shape")

    # -- inspection ------------------------------------------------------

    def coeff(self, key) -> complex:
        return self.table.get(key, 0j)

    def items(self) -> list:
        """Terms sorted by key, for deterministic output."""
        return sorted(self.table.items(), key=lambda kv: self._sort_key(kv[0]))

    def __len__(self) -> int:
        return len(self.table)

    def is_zero(self) -> bool:
        return not self.table

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and self._shape() == other._shape()
            and self.table == other.table
        )

    # -- linear structure --------------------------------------------------

    def __add__(self, other):
        self._require_same_shape(other)
        return self._like(chain(self.table.items(), other.table.items()))

    def __sub__(self, other):
        self._require_same_shape(other)
        negated = ((key, -c) for key, c in other.table.items())
        return self._like(chain(self.table.items(), negated))

    def __neg__(self):
        return self._like((key, -c) for key, c in self.table.items())

    def scaled(self, scalar: complex):
        scalar = complex(scalar)
        return self._like((key, scalar * c) for key, c in self.table.items())

    __mul__ = __rmul__ = scaled


class Series(CoefficientTable):
    """Finitely supported map from words to complex coefficients."""

    __slots__ = ()

    _sort_key = staticmethod(Word.sort_key)

    def _check_key(self, word: Word) -> Word:
        if not isinstance(word, Word) or word.alphabet is not self.alphabet:
            raise ValueError(f"coefficient at {word!r}, not a word over {self.alphabet}")
        return word

    @classmethod
    def zero(cls, alphabet: Alphabet) -> "Series":
        return cls(alphabet)

    @classmethod
    def basis(cls, word: Word) -> "Series":
        """The indicator series xi_w."""
        return cls(word.alphabet, {word: 1.0})

    @classmethod
    def unit(cls, alphabet: Alphabet) -> "Series":
        """The convolution unit delta_e."""
        return cls.basis(alphabet.unit())

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Series":
        """The series of ``data["terms"]``; repeated words are summed.

        Read in stages, each over every term: the term objects; the word
        texts, each a JSON string, matched at once by ``_texts_letters`` and
        built through ``Word._of``; the coefficient parts by
        ``_json_coefficients``; then one canonical step.  An input with a
        fault in one term gets that fault's message; with faults in several,
        the first fault of the earliest stage.  Coefficients are checked
        after the sum: finite terms can overflow together, and the prune
        keeps a NaN in sight.
        """
        alphabet = Alphabet(_json_int(data["alphabet"], "alphabet size"))
        terms = list(_json_terms(data))
        texts = [_json_typed(term["word"], str, "a word text") for term in terms]
        words = [Word._of(alphabet, letters) for letters in _texts_letters(texts, alphabet.size)]
        out = cls(alphabet)
        out.table = _sum_and_prune(zip(words, _json_coefficients(terms)))
        for word, c in out.table.items():
            if not cmath.isfinite(c):
                raise ValueError(f"non-finite coefficient {c} at {word}")
        return out

    def to_json_dict(self) -> dict:
        terms = [{"word": str(w), "re": c.real, "im": c.imag} for w, c in self.items()]
        return {"alphabet": self.alphabet.size, "terms": terms}

    # -- inspection ------------------------------------------------------

    def iter_terms(self) -> ItemsView[Word, complex]:
        return self.table.items()

    def support(self) -> frozenset[Word]:
        return frozenset(self.table)

    def degree(self) -> float:
        """Max word length over the support; ``ZERO_DEGREE`` for the zero series."""
        if not self.table:
            return ZERO_DEGREE
        return max(len(w) for w in self.table)

    def l2_norm(self) -> float:
        return math.sqrt(sum(abs(c) ** 2 for c in self.table.values()))

    def l1_norm(self) -> float:
        return sum(abs(c) for c in self.table.values())

    def letters_used(self) -> frozenset[int]:
        return frozenset(letter for w in self.table for letter in w.letters)

    def __repr__(self) -> str:
        if not self.table:
            return "Series(0)"
        body = " + ".join(f"({c})*{w}" for w, c in self.items())
        return f"Series({body})"

    def __mul__(self, other):
        if isinstance(other, Series):
            return convolve(self, other)
        return self.scaled(other)


def convolve(phi: Series, psi: Series) -> Series:
    """Convolution product; the bilinear extension of ``xi_u * xi_v = xi_{uv}``."""
    phi._require_same_shape(psi)
    return phi._like(
        (u * v, a * b) for u, a in phi.table.items() for v, b in psi.table.items()
    )


def _shifted(u: Word, terms: Terms) -> Iterator[tuple[Word, complex]]:
    """The terms of ``adjoint_shift(u, ...)``: those left-divisible by u, the
    prefix stripped.  Stripping is injective, so distinct words stay distinct."""
    return ((rest, c) for w, c in terms if (rest := w.strip_prefix(u)) is not None)


def adjoint_shift(u: Word, phi: Series) -> Series:
    """Apply the adjoint of the isometry ``xi_w -> xi_{uw}`` to phi.

    Keeps the terms left-divisible by u and strips the prefix; everything
    else is annihilated.
    """
    return phi._like(_shifted(u, phi.table.items()))


def _transported(w: Word, terms: Terms) -> Iterator[tuple[Word, complex]]:
    """The terms of ``conjugate_by(w, ...)``: each word u moved to the unique v
    with ``u*w == w*v``, or dropped.  Transport is injective, so distinct
    words stay distinct."""
    return ((v, c) for u, c in terms if (v := transport(w, u)) is not None)


def conjugate_by(w: Word, phi: Series) -> Series:
    """Symbol of the conjugated convolution operator.

    Each term at u moves to the unique v with ``u*w == w*v`` and is dropped
    when no such v exists; this is the series-level form of sandwiching the
    convolution operator between the shift by w and its adjoint.
    """
    return phi._like(_transported(w, phi.table.items()))


def degree_part(phi: Series, j: int) -> Series:
    """Restriction of phi to words of length exactly j."""
    return phi._like((w, c) for w, c in phi.table.items() if len(w) == j)


def cesaro(phi: Series, k: int) -> Series:
    """Fejer-weighted truncation: degree-j part scaled by ``1 - j/k`` for j < k."""
    if k < 1:
        raise ValueError("order must be positive")
    return phi._like(
        (w, c * (1.0 - len(w) / k)) for w, c in phi.table.items() if len(w) < k
    )


def conditional_expectation(phi: Series, letters: Iterable[int]) -> Series:
    """Restriction of phi to words using only the given generator indices.

    A multiplicative idempotent contraction; it fixes phi exactly once the
    index set covers every letter in the support.
    """
    allowed = frozenset(letters)
    for letter in allowed:
        _check_letter(letter, phi.alphabet.size)
    return phi._like(
        (w, c)
        for w, c in phi.table.items()
        if all(letter in allowed for letter in w.letters)
    )


def first_letter_part(phi: Series, letter: int) -> Series:
    """Restriction of phi to words whose first letter is the given generator."""
    _check_letter(letter, phi.alphabet.size)
    return phi._like(
        (w, c) for w, c in phi.table.items() if w.letters and w.letters[0] == letter
    )


def max_coeff_diff(phi: Series, psi: Series) -> float:
    """Largest coefficientwise deviation between two series."""
    phi._require_same_shape(psi)
    a, b = phi.table, psi.table
    return max((abs(a.get(w, 0j) - b.get(w, 0j)) for w in set(a) | set(b)), default=0.0)
