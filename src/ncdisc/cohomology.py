"""Hochschild cochain complex with scalar coefficients.

Cochains are finitely supported coefficient tables on tuples of words,
representing multilinear functionals on the span of the basis shifts with
values in the scalars.  Both module actions multiply by the coefficient at
the unit word, so the bimodule is symmetric and the degree-zero coboundary
vanishes.  The coboundary of a table is again a finitely supported table,
and every cocycle of arity at least two is trivialized by an explicit
homotopy that cuts the first word after its first letter.

A cochain stores one encoding, its cut codes: each key's words
concatenate to a letter string, interned to an int id, and the key is
that id and its cut positions.  The coboundary's and the homotopy's terms
keep their key's string and move only its cuts, so :func:`coboundary`,
:func:`homotopy`, :func:`trivialize` and the sums of cochains are numpy
kernels on the codes.  A sum groups its terms by string id and cuts in the
order they come and prunes exactly as the dict core of ``series`` would.
The public constructor checks each key word once (``words._check_word``).

One key order, ``_row_keys``, is read from the codes: ``items``, the JSON
writer and :func:`first_cocycle_violation` sort by it.  Keys as tuples of
``Word`` are built by ``_decoded`` only, for ``table`` (on first access,
then kept) and for the one row of a witness or of a refused coefficient.
The JSON writer writes each slot by ``words._text``, and the reader leaves
every stage after its key shapes to ``series._json_keyed_terms``, the one
reader of series terms too, so ``trivialize-cocycle`` builds no ``Word``
for a cocycle or its homotopy, and a fault in a cochain of arity one is
refused as in a series.
"""

from __future__ import annotations

import functools
from itertools import chain
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .operators import basis_dimension
from .series import PRUNE_EPS, Series, _checked, _json_int, _json_keyed_terms, _json_terms
from .series import adjoint_shift, first_letter_part
from .words import Alphabet, Word, _check_word, _index, _text, enumerate_words

WordTuple = tuple[Word, ...]


def _check_arity(arity: int) -> int:
    """``arity``, refused if negative."""
    if arity < 0:
        raise ValueError("arity must be nonnegative")
    return arity


def _key_text(key: WordTuple) -> str:
    """A cochain key as messages write it: ``(w1, w2, ...)``."""
    return f"({', '.join(map(str, key))})"


class NonCocycleError(ValueError):
    """A cochain whose coboundary is nonzero where a cocycle was required."""

    def __init__(self, message: str, witness: Optional[WordTuple] = None):
        super().__init__(message)
        self.witness = witness


#: Most words ``one_cocycle_dimension`` may index.  It builds a word, a
#: cochain row and its coboundary's terms per word, about 2.2 kB at m = 2:
#: a tracemalloc peak of 146 MB at this bound (``max_len`` 15), where the
#: norm path's ``MAX_DIMENSION`` admits 4,194,304 words, an estimated 10 GB.
MAX_COCYCLE_WORDS = 1 << 16

#: Largest int64; a cut code that could pass it is re-ranked first.
_CODE_MAX = int(np.iinfo(np.int64).max)


class _CutCodes(NamedTuple):
    """A cochain table on cut codes, one row per term, in the table's order.

    Row k spells the letter string ``spelled[ids[k]]``, cut at
    ``bounds[k] = (0, |w1|, |w1 w2|, ..., |S|)``, with coefficient
    ``re[k] + i im[k]``.  Two rows have the same word tuple exactly when
    they have the same string id and the same bounds.  Bounds are int32,
    which halves the coboundary's term matrix; codes are int64.
    """

    alphabet: Alphabet
    spelled: list[tuple[int, ...]]
    ids: np.ndarray
    bounds: np.ndarray
    re: np.ndarray
    im: np.ndarray

    @property
    def arity(self) -> int:
        return self.bounds.shape[1] - 1

    def rows(self, at, re=None, im=None) -> "_CutCodes":
        """The rows ``at`` (indices), with their own coefficients or with the
        coefficients ``re + i im``."""
        re, im = (self.re[at], self.im[at]) if re is None else (re, im)
        return self._replace(ids=self.ids[at], bounds=self.bounds[at], re=re, im=im)


def _check_key(arity: int, alphabet: Alphabet, key: WordTuple) -> WordTuple:
    """A key of ``arity`` words over ``alphabet``, as a tuple."""
    key = tuple(key)
    if len(key) != arity:
        raise ValueError(f"key {key} does not have arity {arity}")
    for w in key:
        _check_word(alphabet, w)
    return key


def _encoded(arity: int, alphabet: Alphabet, terms: Iterable) -> _CutCodes:
    """Terms ``(key, c)`` with valid keys on cut codes, one row per term, not
    yet summed or pruned: each key's letter string interned to an int id, and
    its cut positions."""
    strings: dict[tuple[int, ...], int] = {}
    ids, bounds, coeffs = [], [], []
    for key, c in terms:
        letters: tuple[int, ...] = ()
        bounds.append(0)
        for w in key:
            letters += w.letters
            bounds.append(len(letters))
        ids.append(strings.setdefault(letters, len(strings)))
        coeffs.append(c)
    bounds = np.array(bounds, dtype=np.int32).reshape(len(ids), arity + 1)
    coeffs = np.array(coeffs, dtype=complex)
    ids = np.array(ids, dtype=np.int64)
    return _CutCodes(alphabet, list(strings), ids, bounds, coeffs.real, coeffs.imag)


def _row_keys(codes: _CutCodes) -> list[tuple]:
    """Each row's key in the cochain order, read from the codes: per slot
    ``(length, letters)``, its word's ``Word.sort_key``, so that keys compare
    tuple-lexicographically in the word order."""
    spelled = codes.spelled
    return [
        tuple([(b - a, s[a:b]) for a, b in zip(row, row[1:])])
        for s, row in zip(map(spelled.__getitem__, codes.ids.tolist()), codes.bounds.tolist())
    ]


def _decoded(codes: _CutCodes) -> dict[WordTuple, complex]:
    """The map from word tuples to coefficients in row order, the words read
    from the row keys, one ``Word`` per distinct letter tuple."""
    word = functools.cache(functools.partial(Word._of, codes.alphabet))
    rows = zip(_row_keys(codes), codes.re.tolist(), codes.im.tolist())
    return {tuple([word(letters) for _, letters in key]): complex(re, im) for key, re, im in rows}


class Cochain:
    """Finitely supported table on n-tuples of words; arity zero is a scalar.

    Its state is its cut codes, and ``table`` once decoded.
    """

    __slots__ = ("_codes", "_table")

    def __init__(self, arity: int, alphabet: Alphabet, table: Optional[Mapping] = None):
        arity = _check_arity(_index(arity, "arity"))
        check_key = functools.partial(_check_key, arity, alphabet)
        terms = _checked(table.items(), check_key) if table else ()
        self._codes = _summed(_encoded(arity, alphabet, terms))
        self._table = None

    @classmethod
    def _from_codes(cls, codes: _CutCodes) -> "Cochain":
        """Internal constructor: codes with distinct rows, summed and pruned."""
        out = object.__new__(cls)
        out._codes, out._table = codes, None
        return out

    @classmethod
    def _from_valid(cls, shape: tuple[int, Alphabet], terms: Iterable) -> "Cochain":
        """Internal constructor: ``(arity, alphabet)`` and terms whose keys
        are valid for it; repeated keys are summed and pruned."""
        return cls._from_codes(_summed(_encoded(*shape, terms)))

    @property
    def arity(self) -> int:
        return self._codes.arity

    @property
    def alphabet(self) -> Alphabet:
        return self._codes.alphabet

    def _shape(self) -> tuple[int, Alphabet]:
        return (self.arity, self.alphabet)

    @property
    def table(self) -> Mapping[WordTuple, complex]:
        """The read-only map from word tuples to coefficients in row order,
        decoded on first access and kept."""
        if self._table is None:
            self._table = MappingProxyType(_decoded(self._codes))
        return self._table

    @classmethod
    def scalar(cls, alphabet: Alphabet, value: complex) -> "Cochain":
        return cls(0, alphabet, {(): value})

    # -- inspection ------------------------------------------------------

    def coeff(self, key: WordTuple) -> complex:
        return self.table.get(key, 0j)

    def items(self) -> list:
        """Terms sorted by key (``_row_keys``), for deterministic output."""
        terms = list(self.table.items())
        keys = _row_keys(self._codes)
        return [terms[k] for k in sorted(range(len(terms)), key=keys.__getitem__)]

    def __len__(self) -> int:
        return self._codes.ids.size

    def is_zero(self) -> bool:
        return not self._codes.ids.size

    def __eq__(self, other: object) -> bool:
        same_shape = type(other) is Cochain and self._shape() == other._shape()
        return same_shape and self.table == other.table

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
        return f"Cochain(arity={self.arity}, terms={len(self)})"

    # -- linear structure --------------------------------------------------

    def _plus(self, other: "Cochain", sign: float) -> "Cochain":
        """``self + sign * other``: self's rows, then other's on one table of
        strings, summed in that order as the dict core sums their terms."""
        if type(other) is not Cochain or self._shape() != other._shape():
            raise ValueError("Cochain operands of different shape")
        a, b = self._codes, other._codes
        strings = dict(zip(a.spelled, range(len(a.spelled))))
        ids = np.array([strings.setdefault(s, len(strings)) for s in b.spelled], dtype=np.int64)
        merged = a._replace(
            spelled=list(strings),
            ids=np.concatenate([a.ids, ids[b.ids]]),
            bounds=np.concatenate([a.bounds, b.bounds]),
            re=np.concatenate([a.re, sign * b.re]),
            im=np.concatenate([a.im, sign * b.im]),
        )
        return Cochain._from_codes(_summed(merged))

    def __add__(self, other: "Cochain") -> "Cochain":
        return self._plus(other, 1.0)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self._plus(other, -1.0)

    def scaled(self, scalar: complex) -> "Cochain":
        """Each coefficient times ``scalar``, with the parts of Python's
        complex product, then summed and pruned."""
        s = complex(scalar)
        codes = self._codes
        re = s.real * codes.re - s.imag * codes.im
        im = s.real * codes.im + s.imag * codes.re
        return Cochain._from_codes(_summed(codes._replace(re=re, im=im)))

    __mul__ = __rmul__ = scaled

    def __neg__(self) -> "Cochain":
        return self.scaled(-1.0)

    # -- interchange format --------------------------------------------------

    def to_json_dict(self) -> dict:
        """The cochain JSON, terms in ``items()`` order, with no ``Word`` built:
        each slot's text is ``words._text`` of the letters its row key holds,
        written once per distinct letter tuple."""
        codes = self._codes
        text = functools.cache(_text)
        keys = _row_keys(codes)
        re, im = codes.re.tolist(), codes.im.tolist()
        terms = [
            {"words": [text(letters) for _, letters in keys[k]], "re": re[k], "im": im[k]}
            for k in sorted(range(len(keys)), key=keys.__getitem__)
        ]
        return {"arity": codes.arity, "alphabet": codes.alphabet.size, "terms": terms}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Cochain":
        """The cochain of ``data["terms"]``, repeated keys summed and pruned,
        read onto cut codes with no ``Word`` built.

        The arity and the alphabet are sizes, neither JSON ``true``.  After
        the term objects, each key is checked to be a list of ``arity``
        strings; every later stage is ``_json_keyed_terms``'s, a key's
        string its texts joined.  A key's cuts are the running letter counts
        of its texts.  A coefficient that is not finite after the sum is
        refused: finite terms can overflow together.
        """
        arity = _check_arity(_json_int(data["arity"], "arity"))
        alphabet = Alphabet(_json_int(data["alphabet"], "alphabet size"))
        terms = _json_terms(data)
        keys = list(map(itemgetter("words"), terms))
        if not (set(map(type, keys)).issubset((list,)) and set(map(len, keys)).issubset((arity,))):
            key = next(key for key in keys if type(key) is not list or len(key) != arity)
            raise ValueError(f"cochain key {key!r} is not a list of {arity} words")
        texts = list(chain.from_iterable(keys))
        if not set(map(type, texts)).issubset((str,)):
            key = next(key for key in keys if not set(map(type, key)).issubset((str,)))
            raise ValueError(f"cochain key {key!r} holds a text that is not a string")
        distinct = list(dict.fromkeys(texts))
        re, im, spelled, ids = _json_keyed_terms(
            alphabet.size, terms, distinct, map("".join, keys)
        )
        letter_counts = {text: text.count("z") for text in distinct}
        lengths = np.zeros((len(keys), arity + 1), dtype=np.int32)
        counts = np.fromiter(map(letter_counts.__getitem__, texts), np.int32, len(texts))
        lengths[:, 1:] = counts.reshape(len(keys), arity)
        ids = np.array(ids, dtype=np.int64)
        bounds = np.cumsum(lengths, axis=1, dtype=np.int32)
        re, im = np.array(re, dtype=float), np.array(im, dtype=float)
        codes = _summed(_CutCodes(alphabet, spelled, ids, bounds, re, im))
        bad = np.flatnonzero(~(np.isfinite(codes.re) & np.isfinite(codes.im)))
        if bad.size:
            ((key, c),) = _decoded(codes.rows(bad[:1])).items()
            raise ValueError(f"non-finite coefficient {c} at {_key_text(key)}")
        return cls._from_codes(codes)


def _append_digit(codes: np.ndarray, digits: np.ndarray, radix: int) -> np.ndarray:
    """``codes * radix + digits`` for digits below ``radix``.  Codes that
    could overflow int64 are first replaced by their dense ranks, which keep
    equal codes equal and distinct codes distinct."""
    if int(codes.max()) > (_CODE_MAX - (radix - 1)) // radix:
        codes = np.unique(codes, return_inverse=True)[1]
    return codes * radix + digits


def _group(ids: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group rows by word tuple: each row's string id and interior cuts,
    coded in mixed radix ``max|S| + 1``.  Returns the first row of each
    group, in code order, and each row's group.

    Each code takes its row as one more digit, so one plain sort orders
    equal codes by row and puts each group's first row at its head.
    """
    radix = int(bounds[:, -1].max()) + 1
    codes = ids
    for digits in bounds.T[1:-1]:
        codes = _append_digit(codes, digits, radix)
    shift = (len(codes) - 1).bit_length()
    coded = np.sort(_append_digit(codes, np.arange(len(codes)), 1 << shift))
    rows = coded & ((1 << shift) - 1)
    coded >>= shift
    head = np.empty(len(coded), dtype=bool)
    head[0] = True
    np.not_equal(coded[1:], coded[:-1], out=head[1:])
    inverse = np.empty_like(rows)
    inverse[rows] = np.cumsum(head) - 1
    return rows[head], inverse


def _kept(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Positions of the coefficients of modulus above ``PRUNE_EPS``; a modulus
    past the float range is inf, so it is kept, without an overflow warning."""
    with np.errstate(over="ignore"):
        return np.flatnonzero(~(np.hypot(re, im) <= PRUNE_EPS))


def _summed(terms: _CutCodes) -> _CutCodes:
    """The dict core's sum and prune on codes: ``np.bincount`` sums each
    key's terms in order from 0.0, and the keys stay in order of first
    occurrence."""
    if not terms.ids.size:
        return terms
    first, inverse = _group(terms.ids, terms.bounds)
    re = np.bincount(inverse, weights=terms.re)
    im = np.bincount(inverse, weights=terms.im)
    kept = _kept(re, im)
    kept = kept[np.argsort(first[kept])]
    return terms.rows(first[kept], re[kept], im[kept])


def _coboundary_terms(phi: _CutCodes) -> _CutCodes:
    """The coboundary formula's terms, in generation order, before summing.

    Input row k gives a block of ``|S| + n + 2`` terms: the leading unit,
    then for each slot i the cuts p = ``bounds[k, i] .. bounds[k, i + 1]``
    at offset ``1 + i + p``, then the trailing unit.  The two units have the
    keys of slot 0 cut at 0 and of slot n-1 cut at |S|.  A term spells its
    row's string, with the row's bounds and p inserted after slot i.
    """
    bounds = phi.bounds
    n = bounds.shape[1] - 1
    sizes = bounds[:, n] + (n + 2)
    starts = np.cumsum(sizes) - sizes
    owner = np.repeat(np.arange(len(sizes)), sizes)
    inner = bounds.take(owner, axis=0)
    local = np.arange(owner.size) - starts.take(owner)
    slot = np.zeros_like(local)
    for i in range(1, n):
        slot += local > inner[:, i] + i
    cut_at = np.minimum(np.maximum(local - 1 - slot, 0), inner[:, n])
    del local

    sign = (slot & 1) * 2.0 - 1.0
    sign[starts] = 1.0
    sign[starts + sizes - 1] = 1.0 if (n + 1) % 2 == 0 else -1.0
    out = np.empty((owner.size, n + 2), dtype=bounds.dtype)
    out[:, 0] = 0
    out[:, n + 1] = inner[:, n]
    for c in range(1, n + 1):
        out[:, c] = np.where(
            slot >= c, inner[:, c], np.where(slot == c - 1, cut_at, inner[:, c - 1])
        )
    return phi._replace(
        ids=phi.ids.take(owner),
        bounds=out,
        re=sign * phi.re.take(owner),
        im=sign * phi.im.take(owner),
    )


def coboundary(phi: Cochain) -> Cochain:
    """The coboundary of an n-cochain as an (n+1)-cochain table.

    On word tuples the value is the unit weight of the first slot times the
    remaining evaluation, minus-plus the alternating sum over adjacent
    products, plus the sign ``(-1)^(n+1)`` times the unit weight of the
    last slot.  The output support enumerates, for each support word, all
    of its two-factor splittings, so no truncation is involved.  Degree
    zero maps to the zero one-cochain: the scalar bimodule is symmetric.

    Every term from an input key spells that key's letter string; only
    its cuts differ.  So the terms are generated and summed on phi's codes,
    in the formula's order, and the result shares phi's strings.
    """
    return Cochain._from_codes(_summed(_coboundary_terms(phi._codes)))


def is_cocycle(phi: Cochain) -> bool:
    return first_cocycle_violation(phi) is None


def first_cocycle_violation(phi: Cochain) -> Optional[WordTuple]:
    """Least tuple where the coboundary is nonzero, or None for a cocycle.
    The least row is found by its key (``_row_keys``), and only its words
    are built."""
    codes = coboundary(phi)._codes
    if not codes.ids.size:
        return None
    keys = _row_keys(codes)
    (witness,) = _decoded(codes.rows([min(range(len(keys)), key=keys.__getitem__)]))
    return witness


def _check_homotopy_arity(phi: Cochain) -> Cochain:
    """``phi``, refused unless it has a first word to cut and a slot to spare."""
    if phi.arity < 2:
        raise ValueError("homotopy needs arity at least 2")
    return phi


def homotopy(phi: Cochain) -> Cochain:
    """For a cocycle of arity n >= 2, an (n-1)-cochain psi with coboundary phi.

    Cut the first word after its first letter:

        psi(w1, ...) = -phi(first(w1), rest(w1), ...)   for w1 != e,
        psi(e,  ...) =  phi(e, e, ...).

    Non-cocycles are rejected with the least violating tuple as witness.

    Both branches keep the key's string and drop its first interior cut, so
    psi shares phi's strings.  No two keys meet (the first branch keeps s1,
    the second yields the only keys with a unit first word), so a sum would
    only add each coefficient to 0.0, which ``+ 0.0`` repeats.
    """
    _check_homotopy_arity(phi)
    witness = first_cocycle_violation(phi)
    if witness is not None:
        raise NonCocycleError(
            f"not a cocycle: coboundary is nonzero at {_key_text(witness)}",
            witness=witness,
        )
    codes = phi._codes
    single = codes.bounds[:, 1] == 1
    at = np.flatnonzero(single | (codes.bounds[:, 2] == 0))
    sign = np.where(single[at], -1.0, 1.0)
    return Cochain._from_codes(
        codes._replace(
            ids=codes.ids[at],
            bounds=codes.bounds[at].take([0, *range(2, codes.arity + 1)], axis=1),
            re=sign * codes.re[at] + 0.0,
            im=sign * codes.im[at] + 0.0,
        )
    )


def trivialize(phi: Cochain) -> tuple[Cochain, Cochain]:
    """The homotopy psi of a cocycle and its residual ``coboundary(psi) - phi``,
    all three on phi's strings; the residual of a correct psi is empty."""
    psi = homotopy(phi)
    return psi, coboundary(psi) - phi


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


def one_cocycle_dimension(alphabet: Alphabet, max_len: int) -> int:
    """Dimension of the space of one-cocycles supported on words of length
    <= max_len; equals the number of generators.

    The coboundary of the basis cochain at w spells only w, so a sum of
    them is a cocycle exactly when each of its terms is one.  The count is
    the words less the strings the coboundary of their sum spells.  Past
    ``MAX_COCYCLE_WORDS`` words it is refused before any word is built.
    """
    words = basis_dimension(alphabet.size, max_len)
    if words > MAX_COCYCLE_WORDS:
        raise ValueError(
            f"one-cocycles over {alphabet.size} generators up to length {max_len} "
            f"are indexed by {words} words, over {MAX_COCYCLE_WORDS}"
        )
    basis = [((w,), 1.0) for w in enumerate_words(alphabet, max_len)]
    spelled = np.bincount(coboundary(Cochain._from_valid((1, alphabet), basis))._codes.ids)
    return words - int(np.count_nonzero(spelled))
