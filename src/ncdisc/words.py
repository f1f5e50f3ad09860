"""Exact combinatorics of finitely generated free semigroups.

Words over the generators ``z_0, ..., z_{m-1}`` form the free semigroup
under concatenation, with the empty word ``e`` as unit.  This module
provides the graded-lexicographic well-order, prefix/suffix division,
commutation and primitive roots, the transport relation ``u*w == w*v``
used to conjugate convolution symbols, and deterministic enumeration.

Words are immutable, hashable value objects.  There is one ``Alphabet``
per size, so alphabets compare by identity.  Each rule is stated once here
and called wherever it applies:

- ``_INDEX``, the canonical decimal index: the word grammar and the
  generator keys of ``derivations`` are built from it;
- ``_text``, the text of letters (``e``, or ``z<i>`` per letter, like
  ``z0z1z0``): ``str(word)`` and the cochain JSON writer;
- ``_check_letter``, the letter bound, and ``_check_word``, a word over an
  alphabet: the public constructors of words, series and cochains.
  Products, powers and slices of valid words skip the checks through
  ``Word._of`` or its recipe inline.

Text is read by ``_match_texts``, one grammar match over a list of texts,
and ``_split_letters``, which splits texts that met it, or their
concatenations, into letters.  ``Alphabet.parse`` runs the two on one text;
the one JSON term reader, ``series._json_keyed_terms``, on the texts and the
distinct key strings of a whole series or cochain.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from typing import ClassVar, Iterable, NoReturn, Optional

#: A generator index in canonical decimal (no sign, no leading zero, ASCII
#: digits only); a letter is ``z`` and an index, so ``str(parse(t)) == t``.
_INDEX = re.compile(r"0|[1-9][0-9]*")
_WORD_GRAMMAR = re.compile(f"(?:z(?:{_INDEX.pattern}))+")


def _index(value: object, what: str) -> int:
    """``value`` as a plain int; a float or other non-integer is refused."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None


def _check_letter(letter: int, size: int) -> None:
    """Refuse a letter that is not a generator index below ``size``."""
    if not 0 <= letter < size:
        raise ValueError(f"letter {letter} outside alphabet of size {size}")


def _text(letters: tuple[int, ...]) -> str:
    """The text of a word's letters: ``e`` for none, else ``z<i>`` per letter."""
    return "z" + "z".join(map(str, letters)) if letters else "e"


#: Joins the texts ``_match_texts`` matches at once; no word text holds it.
_SEPARATOR = ","
_TEXT = f"(?:e|{_WORD_GRAMMAR.pattern})"
_TEXTS_GRAMMAR = re.compile(f"{_TEXT}(?:{_SEPARATOR}{_TEXT})*")


def _match_texts(texts: list[str]) -> None:
    """Refuse ``texts`` unless every one is a word text.

    One ``fullmatch`` of the grammar over the texts joined by ``_SEPARATOR``,
    which then holds exactly ``len(texts) - 1`` separators, so a text that
    holds one is refused too.  When the match fails, the first text outside
    the grammar raises its own message.
    """
    if not texts:
        return
    try:
        joined = _SEPARATOR.join(texts)
    except TypeError:
        joined = ""  # a text that is not a string: no match, so the search names it
    if joined.count(_SEPARATOR) != len(texts) - 1 or not _TEXTS_GRAMMAR.fullmatch(joined):
        bad = next(t for t in texts if not isinstance(t, str) or not re.fullmatch(_TEXT, t))
        raise ValueError(f"not a word: {bad!r}")


def _split_letters(texts: list[str]) -> list[tuple[int, ...]]:
    """The letters of texts that met the grammar, or of their concatenations
    with the units left out: one split per text that has letters."""
    return [tuple(map(int, rest.split("z"))) if (rest := text[1:]) else () for text in texts]


@dataclass(frozen=True, eq=False, init=False)
class Alphabet:
    """A finite generator set; the generators are the indices ``0..size-1``.

    The well-order on the generators is the numeric index order.  There is
    one instance per size, so alphabets compare by identity.
    """

    size: int
    _interned: ClassVar[dict[int, "Alphabet"]] = {}

    def __new__(cls, size: int) -> "Alphabet":
        size = _index(size, "alphabet size")
        interned = cls._interned.get(size)
        if interned is not None:
            return interned
        if size < 1:
            raise ValueError("alphabet must have at least one generator")
        alphabet = super().__new__(cls)
        object.__setattr__(alphabet, "size", size)
        return cls._interned.setdefault(size, alphabet)

    def __reduce__(self) -> tuple:
        return (Alphabet, (self.size,))

    def letters(self) -> range:
        return range(self.size)

    def unit(self) -> "Word":
        return Word._of(self, ())

    def generator(self, index: int) -> "Word":
        return Word(self, (index,))

    def word(self, letters: Iterable[int]) -> "Word":
        return Word(self, letters)

    def parse(self, text: str) -> "Word":
        """Inverse of ``str(word)``: ``e`` or a run of ``z<i>`` letters."""
        _match_texts([text])
        (letters,) = _split_letters([text])
        _check_letter(max(letters, default=0), self.size)
        return Word._of(self, letters)


def _mixed_alphabets() -> NoReturn:
    """Refuse an operation on words over two alphabets: the one message."""
    raise ValueError("words over different alphabets")


class Word:
    """An immutable word of generator indices; the empty word is the unit.

    Ordering is by length first, then letterwise by generator index.  This
    is a total well-order compatible with multiplication on both sides.

    The hash is taken on first use and kept in ``_hash`` (``None`` until
    then).  The comparisons, products and strips test the alphabets inline
    and refuse a mismatch through ``_mixed_alphabets``; an operator given
    an operand that is not a word returns ``NotImplemented``.
    """

    __slots__ = ("alphabet", "letters", "_hash")

    def __init__(self, alphabet: Alphabet, letters: Iterable[int] = ()):
        size = alphabet.size
        letters = tuple(_index(letter, "letter") for letter in letters)
        for letter in letters:
            _check_letter(letter, size)
        self.alphabet = alphabet
        self.letters = letters
        self._hash = None

    @classmethod
    def _of(cls, alphabet: Alphabet, letters: tuple[int, ...]) -> "Word":
        """Trusted constructor for letters already known to be valid: a
        product, power or slice of words over ``alphabet``.

        The recipe is ``object.__new__`` and the three slot writes, the hash
        left ``None``; ``__mul__``, ``strip_prefix`` and the word loop of
        ``checks._word_stream`` run it inline to save a call per word.
        """
        word = object.__new__(cls)
        word.alphabet = alphabet
        word.letters = letters
        word._hash = None
        return word

    def __len__(self) -> int:
        return len(self.letters)

    def is_unit(self) -> bool:
        return not self.letters

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.letters), self.letters)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Word)
            and self.alphabet is other.alphabet
            and self.letters == other.letters
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.alphabet.size, self.letters))
        return h

    def __lt__(self, other: "Word") -> bool:
        try:
            alphabet, theirs = other.alphabet, other.letters
        except AttributeError:
            return NotImplemented
        if self.alphabet is not alphabet:
            _mixed_alphabets()
        mine = self.letters
        return (len(mine), mine) < (len(theirs), theirs)

    def __le__(self, other: "Word") -> bool:
        try:
            alphabet, theirs = other.alphabet, other.letters
        except AttributeError:
            return NotImplemented
        if self.alphabet is not alphabet:
            _mixed_alphabets()
        mine = self.letters
        return (len(mine), mine) <= (len(theirs), theirs)

    def __gt__(self, other: "Word") -> bool:
        le = self.__le__(other)
        return le if le is NotImplemented else not le

    def __ge__(self, other: "Word") -> bool:
        lt = self.__lt__(other)
        return lt if lt is NotImplemented else not lt

    def __mul__(self, other: "Word") -> "Word":
        try:
            alphabet, theirs = other.alphabet, other.letters
        except AttributeError:
            return NotImplemented
        if self.alphabet is not alphabet:
            _mixed_alphabets()
        word = object.__new__(Word)
        word.alphabet = alphabet
        word.letters = self.letters + theirs
        word._hash = None
        return word

    def __pow__(self, exponent: int) -> "Word":
        if exponent < 0:
            raise ValueError("no inverses in a free semigroup")
        return Word._of(self.alphabet, self.letters * exponent)

    def strip_prefix(self, u: "Word") -> Optional["Word"]:
        """The word v with ``self == u * v``, or None if u is not a prefix."""
        alphabet = self.alphabet
        if alphabet is not u.alphabet:
            _mixed_alphabets()
        letters, prefix = self.letters, u.letters
        n = len(prefix)
        if letters[:n] != prefix:
            return None
        word = object.__new__(Word)
        word.alphabet = alphabet
        word.letters = letters[n:]
        word._hash = None
        return word

    def strip_suffix(self, u: "Word") -> Optional["Word"]:
        """The word v with ``self == v * u``, or None if u is not a suffix."""
        if self.alphabet is not u.alphabet:
            _mixed_alphabets()
        letters, suffix = self.letters, u.letters
        n = len(suffix)
        if n == 0:
            return self
        if n > len(letters) or letters[-n:] != suffix:
            return None
        return Word._of(self.alphabet, letters[:-n])

    def commutes_with(self, other: "Word") -> bool:
        if self.alphabet is not other.alphabet:
            _mixed_alphabets()
        mine, theirs = self.letters, other.letters
        return mine + theirs == theirs + mine

    def primitive_root(self) -> tuple["Word", int]:
        """The shortest v and largest m with ``self == v**m``; unit rejected.

        Two nonempty words commute exactly when they share a primitive root.
        """
        n = len(self.letters)
        if n == 0:
            raise ValueError("the unit has no primitive root")
        for d in range(1, n + 1):
            if n % d == 0 and self.letters[:d] * (n // d) == self.letters:
                return Word._of(self.alphabet, self.letters[:d]), n // d
        raise AssertionError("unreachable: every word is its own root")

    def __str__(self) -> str:
        return _text(self.letters)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


def _check_word(alphabet: Alphabet, word: object) -> Word:
    """``word``, refused unless it is a ``Word`` over ``alphabet``."""
    if not isinstance(word, Word) or word.alphabet is not alphabet:
        raise ValueError(f"{word!r} is not a word over {alphabet}")
    return word


def min_word(words: Iterable[Word]) -> Word:
    """Least element of a nonempty collection under the graded-lex order.

    Staged filtering: keep the words of minimal length, then repeatedly
    keep those with the least letter at the next position.  Words over two
    alphabets are refused, as ``min`` refuses them.
    """
    survivors = list(words)
    if not survivors:
        raise ValueError("empty collection has no least word")
    alphabet = survivors[0].alphabet
    if any(w.alphabet is not alphabet for w in survivors):
        _mixed_alphabets()
    n = min(len(w) for w in survivors)
    survivors = [w for w in survivors if len(w) == n]
    for position in range(n):
        least = min(w.letters[position] for w in survivors)
        survivors = [w for w in survivors if w.letters[position] == least]
    return survivors[0]


def transport(w: Word, u: Word) -> Optional[Word]:
    """The unique v with ``u * w == w * v``, or None if there is none.

    Uniqueness is cancellation: ``u*w`` determines v once w is a prefix.
    """
    return (u * w).strip_prefix(w)


def power_shift_check(w: Word, u: Word, v: Word, k: int) -> bool:
    """Check one instance of the power-shift implication.

    If ``v * w**k == w**k * u`` then u and w commute and ``u == v``; the
    instance passes vacuously when the hypothesis fails.  The implication
    is guaranteed for ``k >= len(u)/len(w) + 1``; the unit w is rejected.
    Both sides of the hypothesis have length ``len(u) + k*len(w)``, so for
    fixed (w, u, k) only the ``len(u)``-prefix of ``w**k * u`` can satisfy
    it; every other v passes vacuously.
    """
    if w.is_unit():
        raise ValueError("base word must not be the unit")
    wk = w**k
    if v * wk != wk * u:
        return True
    return u.commutes_with(w) and u == v


def enumerate_words(alphabet: Alphabet, max_len: int) -> list[Word]:
    """All words of length <= max_len, ascending in the graded-lex order."""
    if max_len < 0:
        raise ValueError("negative length bound")
    out: list[Word] = []
    for n in range(max_len + 1):
        for letters in itertools.product(alphabet.letters(), repeat=n):
            out.append(Word._of(alphabet, letters))
    return out
