"""Hochschild cochain complex with scalar coefficients.

Cochains are finitely supported coefficient tables on tuples of words,
representing multilinear functionals on the span of the basis shifts with
values in the scalars.  They share the coefficient-table core of
``series``: the arity and the tuple keys are checked once, at the public
constructor.  Both module actions multiply by the coefficient at the
unit word, so the bimodule is symmetric and the degree-zero coboundary
vanishes.  The coboundary of a table is again a finitely supported table,
and every cocycle of arity at least two is trivialized by an explicit
homotopy that cuts the first word after its first letter.

One encoding serves the cocycle check, the homotopy and its residual.  A
key's words concatenate to a letter string; the key is that string,
interned to an int id, and its cut positions.  The coboundary's terms,
the homotopy's terms and the residual's terms all keep their key's string
and move only its cuts, so each of the three is a numpy kernel on that
encoding.  The coboundary and the residual sum their terms by a code of
string id and cuts, in the order the formula generates them, and prune
with the table core's test, exactly as the core's sum-and-prune step
would; the homotopy's terms never share a key.  ``Word`` objects are
built only for the keys that survive.

The JSON reader and writer go straight to and from that encoding.  A
key's string is its texts joined, its cuts are the running letter counts,
and repeated keys are summed and pruned by the coboundary's kernel.  The
distinct texts meet the grammar of ``words`` in one match per input, and
each distinct string is split into letters once.  The writer slices each
slot's text from its string's text.  So ``trivialize-cocycle`` builds no
``Word`` for its input or its output.
"""

from __future__ import annotations

import functools
from itertools import chain
from operator import itemgetter
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .operators import TruncationBasis
from .series import (
    PRUNE_EPS,
    CoefficientTable,
    Series,
    _json_int,
    _json_part_lists,
    _json_terms,
    adjoint_shift,
    first_letter_part,
)
from .words import (
    Alphabet,
    Word,
    _check_letter,
    _index,
    _match_texts,
    _split_letters,
    enumerate_words,
)

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

    @classmethod
    def scalar(cls, alphabet: Alphabet, value: complex) -> "Cochain":
        return cls(0, alphabet, {(): value})

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
        """The JSON form, written from the table's cut codes by :func:`_json_dict`."""
        return _json_dict(_encode(self))

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Cochain":
        """The cochain of ``data["terms"]``, read by :func:`_read_codes`."""
        return _decode(_read_codes(data))


#: Largest int64; a cut code that could pass it is re-ranked first.
_CODE_MAX = int(np.iinfo(np.int64).max)


class _CutCodes(NamedTuple):
    """A cochain table on cut codes, one row per term, in the table's order.

    Row k spells the letter string ``spelled[ids[k]]``, whose text is
    ``texts[ids[k]]`` (``""`` for the unit), cut at
    ``bounds[k] = (0, |w1|, |w1 w2|, ..., |S|)``, with coefficient
    ``re[k] + i im[k]``.  Two rows have the same word tuple exactly when
    they have the same string id and the same bounds.  Bounds are int32,
    which halves the coboundary's term matrix; codes are int64.
    """

    alphabet: Alphabet
    spelled: list[tuple[int, ...]]
    texts: list[str]
    ids: np.ndarray
    bounds: np.ndarray
    re: np.ndarray
    im: np.ndarray

    @property
    def arity(self) -> int:
        return self.bounds.shape[1] - 1

    def rows(self, at: np.ndarray, re: np.ndarray, im: np.ndarray) -> "_CutCodes":
        """The rows ``at`` with the coefficients ``re + i im``."""
        return self._replace(ids=self.ids[at], bounds=self.bounds[at], re=re, im=im)


def _encode(phi: Cochain) -> _CutCodes:
    """Each key's letter string, interned to an int id, and its cut positions."""
    strings: dict[tuple[int, ...], int] = {}
    ids = []
    bounds = []
    for key in phi.table:
        letters: tuple[int, ...] = ()
        row = [0]
        for w in key:
            letters += w.letters
            row.append(len(letters))
        ids.append(strings.setdefault(letters, len(strings)))
        bounds += row
    coeffs = np.fromiter(phi.table.values(), complex, len(ids))
    return _CutCodes(
        phi.alphabet,
        list(strings),
        [str(Word._of(phi.alphabet, s)) if s else "" for s in strings],
        np.array(ids, dtype=np.int64),
        np.array(bounds, dtype=np.int32).reshape(len(ids), phi.arity + 1),
        coeffs.real,
        coeffs.imag,
    )


def _read_codes(data: Mapping) -> _CutCodes:
    """The cochain JSON ``data`` on cut codes, repeated keys summed and
    pruned as the table core does, with no ``Word`` built.

    The arity is a non-negative integer and the alphabet a size, neither
    JSON ``true``.  Then the terms are read in stages, each over every term:
    the term objects; the keys, each a list of ``arity`` strings; the
    distinct texts, in one grammar match (``words._match_texts``), with
    their letters counted; the coefficient parts, as
    ``series._json_part_lists`` reads them; each distinct key string, its
    texts joined with the units left out, split into letters once
    (``words._split_letters``) and bounded by the size.  A key's cuts are
    the running letter counts of its texts.  An input with a fault in one
    term gets that fault's message; with faults in several, the first fault
    of the earliest stage.  A coefficient that is not finite after the sum
    is refused: no sum with a NaN or an infinity in it is finite, and finite
    terms can overflow together.
    """
    arity = _json_int(data["arity"], "arity")
    if arity < 0:
        raise ValueError("arity must be nonnegative")
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
    _match_texts(distinct)
    letter_counts = {text: text.count("z") for text in distinct}
    re, im = _json_part_lists(terms)
    try:
        re, im = np.array(re, dtype=float), np.array(im, dtype=float)
    except OverflowError as err:
        raise ValueError(f"coefficient out of range: {err}") from None
    # the key strings, joined and their units dropped in one pass each
    strings = ",".join(map("".join, keys)).replace("e", "").split(",") if keys else []
    string_ids = {text: k for k, text in enumerate(dict.fromkeys(strings))}
    string_texts = list(string_ids)
    spelled = _split_letters(string_texts)
    size = alphabet.size
    if max(map(max, filter(None, spelled)), default=0) >= size:
        # the first string with a letter past the size names its largest one
        _check_letter(next(top for s in spelled if (top := max(s, default=0)) >= size), size)
    lengths = np.zeros((len(keys), arity + 1), dtype=np.int32)
    counts = np.fromiter(map(letter_counts.__getitem__, texts), np.int32, len(texts))
    lengths[:, 1:] = counts.reshape(len(keys), arity)
    codes = _summed(
        _CutCodes(
            alphabet,
            spelled,
            string_texts,
            np.fromiter(map(string_ids.__getitem__, strings), np.int64, len(strings)),
            np.cumsum(lengths, axis=1, dtype=np.int32),
            re,
            im,
        )
    )
    bad = np.flatnonzero(~(np.isfinite(codes.re) & np.isfinite(codes.im)))
    if bad.size:
        at = bad[:1]
        ((key, c),) = _decode(codes.rows(at, codes.re[at], codes.im[at])).table.items()
        raise ValueError(f"non-finite coefficient {c} at ({', '.join(map(str, key))})")
    return codes


def _decode(codes: _CutCodes) -> Cochain:
    """The cochain of distinct rows; ``Word`` objects are built here only,
    one per distinct letter tuple."""
    out = Cochain(codes.arity, codes.alphabet)
    word = functools.cache(functools.partial(Word._of, codes.alphabet))
    spelled = codes.spelled
    table = {}
    for k, row, re, im in zip(
        codes.ids.tolist(), codes.bounds.tolist(), codes.re.tolist(), codes.im.tolist()
    ):
        s = spelled[k]
        table[tuple(word(s[a:b]) for a, b in zip(row, row[1:]))] = complex(re, im)
    out.table = table
    return out


def _json_dict(codes: _CutCodes) -> dict:
    """The cochain JSON of distinct rows, term for term what the table
    writes, with no ``Word`` built.

    The terms are sorted by the ``(len, letters)`` tuples of
    ``Cochain.items()``.  Each slot's text is sliced from its string's text
    at the letter offsets.  The rows' texts are joined, each followed by a
    ``z``, so a row's ``z``s in the joined text mark where each of its
    letters starts and, last, where its text ends: a cut at letter j is
    the row's j-th ``z``, counted from 0.
    """
    spelled, texts = codes.spelled, codes.texts
    ids = codes.ids.tolist()
    blob = "".join([texts[k] + "z" for k in ids])
    marks = np.flatnonzero(np.frombuffer(blob.encode("ascii"), np.uint8) == ord("z"))
    counts = codes.bounds[:, -1] + 1
    firsts = np.cumsum(counts) - counts
    rows = []
    for k, row, at, re, im in zip(
        ids,
        codes.bounds.tolist(),
        marks[firsts[:, None] + codes.bounds].tolist(),
        codes.re.tolist(),
        codes.im.tolist(),
    ):
        s = spelled[k]
        key = tuple([(b - a, s[a:b]) for a, b in zip(row, row[1:])])
        rows.append((key, [blob[a:b] or "e" for a, b in zip(at, at[1:])], re, im))
    rows.sort(key=itemgetter(0))
    terms = [{"words": words, "re": re, "im": im} for _, words, re, im in rows]
    return {"arity": codes.arity, "alphabet": codes.alphabet.size, "terms": terms}


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


def _summed(terms: _CutCodes) -> _CutCodes:
    """The table core's sum and prune on codes: ``np.bincount`` sums each
    key's terms in generation order, and the keys stay in order of first
    occurrence."""
    if not terms.ids.size:
        return terms
    first, inverse = _group(terms.ids, terms.bounds)
    re = np.bincount(inverse, weights=terms.re)
    im = np.bincount(inverse, weights=terms.im)
    kept = np.flatnonzero(~(np.hypot(re, im) <= PRUNE_EPS))
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


def _coboundary_codes(phi: _CutCodes) -> _CutCodes:
    """The coboundary on codes: its terms summed and pruned, once the term
    kernel's temporaries are freed.  A scalar's two unit terms cancel exactly."""
    return _summed(_coboundary_terms(phi))


def _violation(phi: _CutCodes) -> Optional[WordTuple]:
    """Least tuple where the coboundary is nonzero, or None for a cocycle;
    ``Word`` objects are built only for a non-cocycle's surviving keys."""
    boundary = _coboundary_codes(phi)
    if not boundary.ids.size:
        return None
    return min(_decode(boundary).table, key=Cochain._sort_key)


def coboundary(phi: Cochain) -> Cochain:
    """The coboundary of an n-cochain as an (n+1)-cochain table.

    On word tuples the value is the unit weight of the first slot times the
    remaining evaluation, minus-plus the alternating sum over adjacent
    products, plus the sign ``(-1)^(n+1)`` times the unit weight of the
    last slot.  The output support enumerates, for each support word, all
    of its two-factor splittings, so no truncation is involved.  Degree
    zero maps to the zero one-cochain: the scalar bimodule is symmetric.

    Every term from an input key spells the same letter string S as that
    key; only its n cut positions differ.  So the table is encoded once on
    cut codes, and one array kernel sums the terms by code in the order the
    formula generates them, then prunes with the table core's test.  The
    same encoding and kernel serve the cocycle check, the homotopy and its
    residual (:func:`trivialize`).  ``Word`` objects are built only for the
    keys that survive, one per distinct letter tuple.
    """
    return _decode(_coboundary_codes(_encode(phi)))


def is_cocycle(phi: Cochain) -> bool:
    return first_cocycle_violation(phi) is None


def first_cocycle_violation(phi: Cochain) -> Optional[WordTuple]:
    """Least tuple where the coboundary is nonzero, or None for a cocycle."""
    return _violation(_encode(phi))


def _homotopy_codes(phi: Cochain | _CutCodes) -> tuple[_CutCodes, _CutCodes]:
    """The codes of a cocycle, encoded first if it is given as a table, and
    of its homotopy.

    Both branches of the homotopy keep the key's letter string and drop its
    first interior cut: a key with |s1| = 1 becomes ``(s1 s2, ...)`` with
    weight -c, and a key with s1 = s2 = e drops one of its two leading zero
    cuts and keeps weight c.  No two keys meet: the first branch keeps s1,
    the second yields the only keys with a unit first word.  So the table
    core's sum and prune would only add each coefficient to ``0j``, which
    ``+ 0.0`` repeats (it turns -0.0 into 0.0), and keep it.
    """
    codes = phi if isinstance(phi, _CutCodes) else _encode(phi)
    if codes.arity < 2:
        raise ValueError("homotopy needs arity at least 2")
    witness = _violation(codes)
    if witness is not None:
        raise NonCocycleError(
            f"not a cocycle: coboundary is nonzero at ({', '.join(str(w) for w in witness)})",
            witness=witness,
        )
    single = codes.bounds[:, 1] == 1
    at = np.flatnonzero(single | (codes.bounds[:, 2] == 0))
    sign = np.where(single[at], -1.0, 1.0)
    psi = codes._replace(
        ids=codes.ids[at],
        bounds=codes.bounds[at].take([0, *range(2, codes.arity + 1)], axis=1),
        re=sign * codes.re[at] + 0.0,
        im=sign * codes.im[at] + 0.0,
    )
    return codes, psi


def homotopy(phi: Cochain) -> Cochain:
    """For a cocycle of arity n >= 2, an (n-1)-cochain psi with coboundary phi.

    Cut the first word after its first letter:

        psi(w1, ...) = -phi(first(w1), rest(w1), ...)   for w1 != e,
        psi(e,  ...) =  phi(e, e, ...).

    Non-cocycles are rejected with the least violating tuple as witness.
    The cocycle check and psi run on one cut-code encoding of phi (see
    :func:`coboundary`); ``Word`` objects are built only for psi's keys.
    """
    return _decode(_homotopy_codes(phi)[1])


def trivialize(phi: Cochain | _CutCodes) -> tuple[Cochain, Cochain]:
    """The homotopy psi of a cocycle and its residual ``coboundary(psi) - phi``.

    Equal to ``homotopy(phi)`` and ``coboundary(psi) - phi`` term for term
    and bit for bit, from one encoding of phi; phi may also come encoded,
    as the JSON reader :func:`_read_codes` gives it.  As in the table core's
    subtraction, the coboundary of psi's codes is summed and pruned first;
    then phi's rows, which share phi's string ids, follow it with their
    coefficients negated, and one more sum and prune gives the difference
    in the subtraction's key order.  For a correct psi nothing survives, so
    no ``Word`` is built for the residual.
    """
    psi, residual = _trivialize_codes(phi)
    return _decode(psi), _decode(residual)


def _trivialize_codes(phi: Cochain | _CutCodes) -> tuple[_CutCodes, _CutCodes]:
    """The codes of :func:`trivialize`'s psi and residual, decoded by neither."""
    codes, psi = _homotopy_codes(phi)
    return psi, _residual(psi, codes)


def _residual(psi: _CutCodes, phi: _CutCodes) -> _CutCodes:
    """``coboundary(psi) - phi`` on codes that share phi's string ids, with
    the table core's sums, prunes and key order (see :func:`trivialize`)."""
    boundary = _coboundary_codes(psi)
    return _summed(
        boundary._replace(
            ids=np.concatenate([boundary.ids, phi.ids]),
            bounds=np.concatenate([boundary.bounds, phi.bounds]),
            re=np.concatenate([boundary.re, -phi.re]),
            im=np.concatenate([boundary.im, -phi.im]),
        )
    )


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
    basis = TruncationBasis(alphabet, max_len)
    lengths = basis.lengths
    # the pairs (u, v) of ranks with |u| + |v| <= max_len, in row-major order
    u, v = np.nonzero(lengths[:, None] + lengths <= max_len)
    rows = np.arange(u.size)
    matrix = np.zeros((u.size, basis.dimension))
    matrix[rows, basis.concat(u, v)] -= 1.0
    matrix[rows[u == 0], v[u == 0]] += 1.0
    matrix[rows[v == 0], u[v == 0]] += 1.0
    return matrix, enumerate_words(alphabet, max_len)


def one_cocycle_dimension(alphabet: Alphabet, max_len: int) -> int:
    """Dimension of the space of one-cocycles supported on words of length
    <= max_len; equals the number of generators."""
    matrix, words = one_cocycle_constraints(alphabet, max_len)
    rank = int(np.linalg.matrix_rank(matrix))
    return len(words) - rank
