import copy
import dataclasses
import itertools
import math
import pickle
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncdisc import checks
from ncdisc.series import _json_keyed_terms
from ncdisc.words import (
    Alphabet,
    Word,
    enumerate_words,
    min_word,
    power_shift_check,
    transport,
)

A2 = Alphabet(2)
A3 = Alphabet(3)
E = A2.unit()
Z0 = A2.generator(0)
Z1 = A2.generator(1)


def w2(*letters):
    return A2.word(letters)


def words_strategy(alphabet, max_len=5):
    return st.lists(
        st.integers(0, alphabet.size - 1), max_size=max_len
    ).map(lambda ls: alphabet.word(ls))


# -- construction and validation -----------------------------------------


def test_alphabet_must_be_nonempty():
    with pytest.raises(ValueError):
        Alphabet(0)


def test_letters_must_fit_alphabet():
    with pytest.raises(ValueError):
        A2.word([0, 2])


def test_mixed_alphabet_concat_rejected():
    with pytest.raises(ValueError):
        Z0 * A3.generator(0)


def test_length_examples():
    assert len(E) == 0
    assert len(w2(0, 1)) == 2
    assert len(w2(0, 0, 0)) == 3


def test_concat_examples():
    assert E * w2(1, 0) == w2(1, 0)
    assert Z0 * Z1 == w2(0, 1)
    assert w2(0, 1) * Z1 == w2(0, 1, 1)


def test_power():
    assert w2(0, 1) ** 3 == w2(0, 1, 0, 1, 0, 1)
    assert Z0**0 == E
    with pytest.raises(ValueError):
        Z0 ** (-1)


# -- division --------------------------------------------------------------


def test_strip_prefix_examples():
    assert w2(0, 1).strip_prefix(Z0) == Z1
    assert w2(0, 1).strip_prefix(Z1) is None
    assert w2(1, 0).strip_prefix(E) == w2(1, 0)


def test_strip_suffix_examples():
    assert w2(0, 1).strip_suffix(Z1) == Z0
    assert w2(0, 1).strip_suffix(Z0) is None
    assert w2(1, 1).strip_suffix(w2(1, 1)) == E
    assert w2(1).strip_suffix(w2(1, 1)) is None


@settings(max_examples=200)
@given(words_strategy(A2), words_strategy(A2))
def test_division_roundtrip(u, v):
    w = u * v
    assert w.strip_prefix(u) == v
    assert w.strip_suffix(v) == u


# -- ordering ---------------------------------------------------------------


def test_order_examples():
    assert Z1 < w2(0, 1)  # shorter first
    assert w2(0, 0, 1) < w2(0, 1, 0)  # letterwise tie-break
    assert not w2(0, 1) < w2(0, 1)
    assert w2(0, 1) <= w2(0, 1)


@settings(max_examples=200)
@given(words_strategy(A3), words_strategy(A3), words_strategy(A3))
def test_order_multiplication_invariant(u, v, w):
    assert sum([u < v, u == v, u > v]) == 1
    if u < v:
        assert w * u < w * v
        assert u * w < v * w


def test_order_invariance_bulk():
    rng = random.Random(42)
    for _ in range(10_000):
        u, v, w = (
            A2.word(rng.randrange(2) for _ in range(rng.randint(0, 6)))
            for _ in range(3)
        )
        if u < v:
            assert w * u < w * v and u * w < v * w


def test_min_word_examples():
    assert min_word({w2(0, 1), Z1, Z0}) == Z0
    assert min_word([w2(1, 0, 1)]) == w2(1, 0, 1)
    with pytest.raises(ValueError):
        min_word([])


def test_min_word_matches_linear_scan():
    rng = random.Random(7)
    for _ in range(50):
        sample = {
            A2.word(rng.randrange(2) for _ in range(rng.randint(0, 6)))
            for _ in range(100)
        }
        assert min_word(sample) == min(sample)


# -- commutation and primitive roots ---------------------------------------


def test_commutes_examples():
    assert w2(0, 0).commutes_with(Z0)
    assert not Z0.commutes_with(Z1)
    # both are powers of z0z1
    assert w2(0, 1).commutes_with(w2(0, 1, 0, 1))


def test_primitive_root_examples():
    assert w2(0, 1, 0, 1).primitive_root() == (w2(0, 1), 2)
    assert Z0.primitive_root() == (Z0, 1)
    with pytest.raises(ValueError):
        E.primitive_root()


def test_commutation_iff_same_root_exhaustive():
    words = [w for w in enumerate_words(A2, 6) if not w.is_unit()]
    roots = {w: w.primitive_root()[0] for w in words}
    for u, w in itertools.product(words, words):
        same_root = roots[u] == roots[w]
        assert u.commutes_with(w) == same_root, (u, w)


def test_primitive_root_reconstructs():
    for w in enumerate_words(A3, 4):
        if w.is_unit():
            continue
        root, power = w.primitive_root()
        assert root**power == w


# -- transport ---------------------------------------------------------------


def test_transport_examples():
    assert transport(Z0, Z0) == Z0
    assert transport(Z0, Z1) is None
    moved = transport(w2(0, 1), w2(0, 1, 0, 1))
    assert moved == w2(0, 1, 0, 1)
    assert w2(0, 1, 0, 1) * w2(0, 1) == w2(0, 1) * moved


@settings(max_examples=200)
@given(words_strategy(A2, 4), words_strategy(A2, 4))
def test_transport_satisfies_defining_equation(w, u):
    v = transport(w, u)
    if v is not None:
        assert u * w == w * v
        assert len(v) == len(u)


# -- power-shift implication --------------------------------------------------


def test_power_shift_examples():
    w = w2(0, 1)
    assert power_shift_check(w, w, w, 2)
    assert (Z1 * w**2 == w**2 * w) is False  # hypothesis really fails below
    assert power_shift_check(Z0, Z1, Z1, 2)  # vacuous
    with pytest.raises(ValueError):
        power_shift_check(E, Z0, Z0, 2)


def test_power_shift_threshold_is_sharp():
    # below the k >= |u|/|w| + 1 threshold the implication can fail
    w, u, v = Z0, w2(1, 0), w2(0, 1)
    assert v * w**1 == w**1 * u
    assert not power_shift_check(w, u, v, 1)


def test_power_shift_exhaustive_small():
    bases = [w for w in enumerate_words(A2, 2) if not w.is_unit()]
    candidates = enumerate_words(A2, 3)
    for w, u in itertools.product(bases, candidates):
        k = math.ceil(len(u) / len(w)) + 1
        for v in enumerate_words(A2, len(u)):
            if len(v) == len(u):
                assert power_shift_check(w, u, v, k), (w, u, v, k)


# -- enumeration and text form -------------------------------------------------


def test_enumerate_words_examples():
    assert enumerate_words(A2, 1) == [E, Z0, Z1]
    assert len(enumerate_words(A2, 2)) == 7
    assert len(enumerate_words(A3, 3)) == 40  # 1 + 3 + 9 + 27


def test_enumeration_is_sorted():
    listed = enumerate_words(A2, 4)
    assert listed == sorted(listed)
    assert len(set(listed)) == len(listed)


def test_text_roundtrip():
    assert str(E) == "e"
    assert str(w2(0, 1, 0)) == "z0z1z0"
    assert A2.parse("e") == E
    assert A2.parse("z0z1z0") == w2(0, 1, 0)


def test_parse_rejects_bad_text():
    for bad in ["", "E", "z", "z0 z1", "ez0", "z0e", "0", "z-1"]:
        with pytest.raises(ValueError):
            A2.parse(bad)
    with pytest.raises(ValueError):
        A2.parse("z2")  # letter outside the alphabet


def test_parse_multidigit_letters():
    wide = Alphabet(12)
    w = wide.word([11, 0, 10])
    assert wide.parse(str(w)) == w


@settings(max_examples=100)
@given(words_strategy(A3, 6))
def test_parse_str_roundtrip(w):
    assert A3.parse(str(w)) == w


@pytest.mark.parametrize("text", ["z01", "z00", "z1z01", "z+1", "z١", "z0٠"])
def test_parse_refuses_non_canonical_spellings(text):
    with pytest.raises(ValueError):
        Alphabet(12).parse(text)


def _reference_letters(text, size):
    """One text read on its own: the grammar, then a split and a bound per letter."""
    if text == "e":
        return ()
    assert re.fullmatch(r"(?:z(?:0|[1-9][0-9]*))+", text)
    letters = tuple(int(part) for part in text.split("z")[1:])
    assert all(letter < size for letter in letters)
    return letters


#: (alphabet size, texts) with letters >= 10 once the alphabet has them
TEXT_LISTS = st.integers(1, 13).flatmap(
    lambda m: st.tuples(st.just(m), st.lists(words_strategy(Alphabet(m)).map(str)))
)


def _read_texts(texts, size):
    """The letters of each text as the JSON term reader reads a series' words."""
    terms = [{"re": 1.0}] * len(texts)
    *_, spelled, ids = _json_keyed_terms(size, terms, texts, texts)
    return [spelled[k] for k in ids]


@settings(max_examples=200)
@given(TEXT_LISTS)
def test_bulk_text_rule_reads_each_text_as_the_one_text_rule(case):
    size, texts = case
    expected = [_reference_letters(text, size) for text in texts]
    assert _read_texts(texts, size) == expected
    assert [Alphabet(size).parse(text).letters for text in texts] == expected


@pytest.mark.parametrize("bad", ["z0,z1", "z0,", ",z0", ",", "e,e"])
def test_bulk_text_rule_refuses_a_text_that_holds_the_separator(bad):
    # joined, "z0,z1" would split into two valid texts
    for texts in ([bad], ["z1", bad], [bad, "e"]):
        with pytest.raises(ValueError, match=re.escape(f"not a word: {bad!r}")):
            _read_texts(texts, 2)
    with pytest.raises(ValueError, match=re.escape(f"not a word: {bad!r}")):
        A2.parse(bad)


def test_bulk_text_rule_names_the_first_bad_text():
    with pytest.raises(ValueError, match="not a word: 'z0x'"):
        _read_texts(["z1", "z0x", "q", 5], 2)
    with pytest.raises(ValueError, match="not a word: 5"):
        _read_texts(["z1", 5, "q"], 2)
    with pytest.raises(ValueError, match="not a word: 5"):
        A2.parse(5)
    with pytest.raises(ValueError, match="letter 7 outside alphabet of size 3"):
        _read_texts(["z1", "z7z0", "e"], 3)
    with pytest.raises(ValueError, match="letter 7 outside alphabet of size 3"):
        A3.parse("z7z0")
    assert _read_texts([], 2) == []


# -- interned alphabets and checked letters ------------------------------------


def test_alphabets_are_interned():
    assert Alphabet(2) is A2
    assert Alphabet(np.int64(3)) is A3
    assert Alphabet(True) is Alphabet(1)
    assert Alphabet(2) != Alphabet(3)
    assert pickle.loads(pickle.dumps(A2)) is A2
    assert copy.deepcopy(A3) is A3
    assert pickle.loads(pickle.dumps(w2(0, 1))) == w2(0, 1)
    assert repr(A2) == "Alphabet(size=2)"
    with pytest.raises(dataclasses.FrozenInstanceError):
        A2.size = 5


@pytest.mark.parametrize("size", [0, -1, 2.0, "2", None])
def test_alphabet_size_must_be_a_positive_integer(size):
    with pytest.raises(ValueError):
        Alphabet(size)


@pytest.mark.parametrize("letters", [[1.5], [1.0], [0, "1"], [None]])
def test_word_refuses_non_integer_letters(letters):
    with pytest.raises(ValueError):
        Word(A2, letters)
    with pytest.raises(ValueError):
        A2.word(letters)


def test_word_coerces_integer_like_letters():
    w = Word(A2, [True, np.int64(0), np.uint8(1)])
    assert w.letters == (1, 0, 1)
    assert all(type(letter) is int for letter in w.letters)
    assert str(w) == "z1z0z1"
    assert w == w2(1, 0, 1)
    assert hash(w) == hash(w2(1, 0, 1))



# -- operands: other alphabets and other types -----------------------------

MIXED = "^words over different alphabets$"
W3 = A3.generator(0)


@pytest.mark.parametrize(
    "op",
    [
        lambda a, b: a < b,
        lambda a, b: a <= b,
        lambda a, b: a > b,
        lambda a, b: a >= b,
        lambda a, b: a * b,
        lambda a, b: a.strip_prefix(b),
        lambda a, b: a.strip_suffix(b),
        lambda a, b: a.commutes_with(b),
        lambda a, b: transport(a, b),
        lambda a, b: power_shift_check(a, b, b, 2),
        lambda a, b: min_word([a, b]),
    ],
    ids=[
        "lt", "le", "gt", "ge", "mul", "strip_prefix", "strip_suffix",
        "commutes_with", "transport", "power_shift_check", "min_word",
    ],
)
def test_mixed_alphabets_raise_one_message(op):
    with pytest.raises(ValueError, match=MIXED):
        op(w2(0, 1), W3)
    with pytest.raises(ValueError, match=MIXED):
        op(W3, w2(0, 1))


def test_min_word_refuses_mixed_alphabets():
    with pytest.raises(ValueError, match=MIXED):
        min_word([Alphabet(2).unit(), Alphabet(3).unit()])
    with pytest.raises(ValueError, match=MIXED):
        min([Alphabet(2).unit(), Alphabet(3).unit()])


@pytest.mark.parametrize(
    "op",
    [
        lambda w: w < 3,
        lambda w: w <= 3,
        lambda w: w > 3,
        lambda w: w >= 3,
        lambda w: 3 < w,
        lambda w: w * 3,
        lambda w: 3 * w,
        lambda w: sorted([w, 3]),
    ],
    ids=["lt", "le", "gt", "ge", "reflected_lt", "mul", "rmul", "sorted"],
)
def test_non_word_operand_is_a_type_error(op):
    with pytest.raises(TypeError, match="not supported|unsupported operand"):
        op(w2(0, 1))


def test_word_equals_no_other_type():
    assert (w2(0, 1) == 3) is False
    assert (w2(0, 1) != (0, 1)) is True


# -- the hash, taken on first use ----------------------------------------------

#: Each way a word is built; each call builds fresh words, not yet hashed.
BUILDS = {
    "Word": lambda: [Word(A3, (0, 2, 1)), Word(A2, ())],
    "Alphabet.word": lambda: [A3.word([0, 2, 1])],
    "parse": lambda: [A3.parse("z0z2z1"), A3.parse("e")],
    "_of": lambda: [Word._of(A3, (0, 2, 1))],
    "product": lambda: [A3.word([0]) * A3.word([2, 1]), A3.unit() * A3.unit()],
    "power": lambda: [A3.word([0, 2]) ** 3, A3.generator(1) ** 0],
    "strip_prefix": lambda: [A3.word([1, 0, 2]).strip_prefix(A3.generator(1))],
    "strip_suffix": lambda: [A3.word([0, 2, 1]).strip_suffix(A3.generator(1))],
    "enumerate_words": lambda: enumerate_words(A3, 3),
    "_random_words": lambda: checks._random_words(random.Random(7), A3, 4, 50),
}


@pytest.mark.parametrize("how", sorted(BUILDS))
def test_hash_is_the_value_of_the_letters_in_every_use(how):
    for w, again, twin in zip(BUILDS[how](), BUILDS[how](), BUILDS[how]()):
        expected = hash((w.alphabet.size, w.letters))
        ref = Word(w.alphabet, w.letters)
        for _ in ("before the first hash", "after it"):
            assert {w: 1}[ref] == 1
            assert {ref: 2}[again] == 2
            assert twin in {ref} and ref in {twin}
            assert hash(w) == hash(again) == hash(twin) == hash(ref) == expected


@pytest.mark.parametrize("how", sorted(BUILDS))
def test_pickle_and_copy_keep_equality_and_hash(how):
    for unhashed, hashed in zip(BUILDS[how](), BUILDS[how]()):
        expected = hash((hashed.alphabet.size, hashed.letters))
        assert hash(hashed) == expected
        for w in (unhashed, hashed):
            clones = [pickle.loads(pickle.dumps(w)), copy.copy(w)]
            for clone in clones:
                assert clone == w and clone.alphabet is w.alphabet
                assert hash(clone) == hash(w) == expected
                assert {clone: 1}[w] == 1
