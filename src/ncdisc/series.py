"""Finitely supported complex series on a free semigroup, their dict core,
and the one reader of JSON terms that cochains share.

A series plays two roles: a vector in the square-summable sequence space
over the semigroup, and the symbol of the convolution operator it induces
there.  The product is convolution,

    (phi * psi)(w) = sum over prefixes u of w of phi(u) * psi(u^{-1} w),

which on basis elements is concatenation: ``xi_u * xi_v = xi_{uv}``.

A ``Series`` is a dict from words to complex coefficients, with one
canonical step -- sum repeated keys, then drop coefficients of magnitude at
most ``PRUNE_EPS``, so that cancellation leaves no dust -- plus the linear
structure and equality.  Keys and coefficients are checked once, by the
public constructor (``_checked``, which ``cohomology.Cochain`` runs too),
which refuses a key that is not a word over the alphabet
(``words._check_word``) and a NaN or infinite coefficient.  Results of
operations are built from keys that are already valid through the internal
``_from_valid`` constructor, which runs only the canonical step.
``conjugate_by`` and ``adjoint_shift`` are one canonical step over the term
streams ``_transported`` and ``_shifted``, which the solver of
``derivations`` walks without a series per step.

A series term is a key with one slot, so both JSON term formats are read by
one reader: each format checks its own key shapes, and ``_json_keyed_terms``
runs every later stage, in the one order its docstring gives, and returns
the letters of each distinct key string, never its text: a writer derives
texts by ``words._text``.  Cochains store cut codes instead, summed and
pruned exactly as ``_sum_and_prune`` would; sizes are read by ``_json_int``
(JSON ``true`` is not a size).
"""

from __future__ import annotations

import cmath
import functools
import math
from itertools import chain
from typing import Callable, Hashable, Iterable, ItemsView, Iterator, Mapping, Optional

from .words import Alphabet, Word, _check_letter, _check_word, _index, _match_texts, _split_letters
from .words import transport

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


def _json_part_lists(terms: list[Mapping]) -> tuple[list[float], list[float]]:
    """The ``re`` parts and the optional ``im`` parts of JSON terms, as
    floats.  Each is a JSON number, never a string or a boolean; then an int
    past the float range is ``coefficient out of range``.  Checked in
    whole-list passes; on a fault, the first faulty term raises its own
    message."""
    try:
        parts = [term["re"] for term in terms], [term.get("im", 0.0) for term in terms]
        types = set(map(type, chain(*parts)))
    except KeyError:
        types = None  # a term without ``re``: the loop names the first fault
    if types is None or not types.issubset(_JSON_NUMBERS):
        for term in terms:
            re, im = term["re"], term.get("im", 0.0)
            if type(re) not in _JSON_NUMBERS or type(im) not in _JSON_NUMBERS:
                raise ValueError(f"coefficient parts {re!r}, {im!r} are not both JSON numbers")
        raise AssertionError("unreachable: every term has two JSON number parts")
    if int in types:  # only an int can be past the float range
        try:
            parts = list(map(float, parts[0])), list(map(float, parts[1]))
        except OverflowError as err:
            raise ValueError(f"coefficient out of range: {err}") from None
    return parts


def _json_keyed_terms(
    size: int, terms: list[Mapping], texts: list[str], key_texts: Iterable[str]
) -> tuple[list[float], list[float], list[tuple[int, ...]], list[int]]:
    """Every stage of reading JSON terms after the key shapes, which each
    format checks on its own; a series term is a key with one slot.

    ``texts`` are the word texts of the keys, each a string, every one at
    least once, and ``key_texts`` each key's texts concatenated.  The stages
    run in this order, each over every term, so that input with faults in
    several terms is refused with the first fault of the earliest stage, and
    within a stage with the earliest term's:

    1. the texts, in one grammar match (``_match_texts``);
    2. the coefficient parts, read as floats by ``_json_part_lists``;
    3. each key's string, its texts joined with the units left out,
       interned, and each distinct string split into letters once
       (``_split_letters``);
    4. the letters, bounded by ``size``: the first string with a letter
       past it names its largest letter.

    Returns the ``re`` and ``im`` parts, the letters of the distinct key
    strings in order of first occurrence, and each term's index into them.
    A reader sums repeated keys and only then refuses a coefficient that is
    not finite: finite terms can overflow together.
    """
    _match_texts(texts)
    re, im = _json_part_lists(terms)
    # the key strings, joined and their units dropped in one pass each
    strings = ",".join(key_texts).replace("e", "").split(",") if terms else []
    string_ids = {text: k for k, text in enumerate(dict.fromkeys(strings))}
    spelled = _split_letters(list(string_ids))
    if max(map(max, filter(None, spelled)), default=0) >= size:
        # the first string with a letter past the size names its largest one
        _check_letter(next(top for s in spelled if (top := max(s, default=0)) >= size), size)
    return re, im, spelled, list(map(string_ids.__getitem__, strings))


class Series:
    """Immutable finitely supported map from words to complex coefficients."""

    __slots__ = ("alphabet", "table")

    def __init__(self, alphabet: Alphabet, coeffs: Optional[Mapping] = None):
        check_word = functools.partial(_check_word, alphabet)
        self.alphabet = alphabet
        self.table = _sum_and_prune(_checked(coeffs.items(), check_word)) if coeffs else {}

    @classmethod
    def _from_valid(cls, alphabet: Alphabet, terms: Terms) -> "Series":
        """Internal constructor: terms whose words are over ``alphabet``;
        only the canonical step runs."""
        out = object.__new__(cls)
        out.alphabet = alphabet
        out.table = _sum_and_prune(terms)
        return out

    def _like(self, terms: Terms) -> "Series":
        """Internal constructor for a result over this series' alphabet."""
        return Series._from_valid(self.alphabet, terms)

    def _check_operand(self, other: "Series") -> None:
        """Refuse an operand that is not a series over this alphabet."""
        if type(other) is not Series or other.alphabet is not self.alphabet:
            raise ValueError("Series operands of different shape")

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

        Each term's word is a JSON string (its key shape); the later stages
        are ``_json_keyed_terms``'s, at one slot per key.  One ``Word`` is
        built per distinct word, then the canonical step runs, and a
        coefficient that is not finite after the sum is refused, its word
        named as a cochain names a key of one slot.
        """
        alphabet = Alphabet(_json_int(data["alphabet"], "alphabet size"))
        terms = _json_terms(data)
        texts = [_json_typed(term["word"], str, "a word text") for term in terms]
        re, im, spelled, ids = _json_keyed_terms(alphabet.size, terms, texts, texts)
        words = [Word._of(alphabet, letters) for letters in spelled]
        out = cls._from_valid(alphabet, zip(map(words.__getitem__, ids), map(complex, re, im)))
        for word, c in out.table.items():
            if not cmath.isfinite(c):
                raise ValueError(f"non-finite coefficient {c} at ({word})")
        return out

    def to_json_dict(self) -> dict:
        terms = [{"word": str(w), "re": c.real, "im": c.imag} for w, c in self.items()]
        return {"alphabet": self.alphabet.size, "terms": terms}

    # -- inspection ------------------------------------------------------

    def coeff(self, word: Word) -> complex:
        return self.table.get(word, 0j)

    def items(self) -> list:
        """Terms sorted by word, for deterministic output."""
        return sorted(self.table.items(), key=lambda kv: kv[0].sort_key())

    def iter_terms(self) -> ItemsView[Word, complex]:
        return self.table.items()

    def __len__(self) -> int:
        return len(self.table)

    def is_zero(self) -> bool:
        return not self.table

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is Series
            and self.alphabet is other.alphabet
            and self.table == other.table
        )

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

    # -- linear structure --------------------------------------------------

    def __add__(self, other: "Series") -> "Series":
        self._check_operand(other)
        return self._like(chain(self.table.items(), other.table.items()))

    def __sub__(self, other: "Series") -> "Series":
        self._check_operand(other)
        negated = ((key, -c) for key, c in other.table.items())
        return self._like(chain(self.table.items(), negated))

    def __neg__(self) -> "Series":
        return self._like((key, -c) for key, c in self.table.items())

    def scaled(self, scalar: complex) -> "Series":
        scalar = complex(scalar)
        return self._like((key, scalar * c) for key, c in self.table.items())

    __rmul__ = scaled

    def __mul__(self, other):
        if isinstance(other, Series):
            return convolve(self, other)
        return self.scaled(other)


def convolve(phi: Series, psi: Series) -> Series:
    """Convolution product; the bilinear extension of ``xi_u * xi_v = xi_{uv}``."""
    phi._check_operand(psi)
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
    phi._check_operand(psi)
    a, b = phi.table, psi.table
    return max((abs(a.get(w, 0j) - b.get(w, 0j)) for w in set(a) | set(b)), default=0.0)
