"""The words suite's sweeps over canonical letter patterns.

The reduced sweeps test one relabeling of each class of word tuples.  The
full sweeps below test every word tuple over the alphabet and serve as their
oracles: both pass on the real code and both fail under faults planted on
whole relabeling classes.
"""

import itertools
import math
import random

import pytest

from ncdisc import checks
from ncdisc.checks import RunConfig
from ncdisc.words import Alphabet, Word, enumerate_words

def full_concat_laws(params):
    alphabet = Alphabet(params["m"])
    words = enumerate_words(alphabet, params["len"])
    e = alphabet.unit()
    for u in words:
        if e * u != u or u * e != u:
            return {"u": str(u)}
        for v in words:
            if len(u * v) != len(u) + len(v):
                return {"u": str(u), "v": str(v)}
            for w in words:
                if (u * v) * w != u * (v * w):
                    return {"u": str(u), "v": str(v), "w": str(w)}
    return None


def full_cancellation(params):
    alphabet = Alphabet(params["m"])
    words = enumerate_words(alphabet, params["len"])
    for u in words:
        if len({u * v for v in words}) != len(words):
            return {"u": str(u)}
        for v in words:
            w = u * v
            if w.strip_prefix(u) != v or w.strip_suffix(v) != u:
                return {"u": str(u), "v": str(v)}
    return None


def full_power_shift_sweep(params):
    alphabet = Alphabet(params["m"])
    bases = [w for w in enumerate_words(alphabet, params["w_max"]) if not w.is_unit()]
    for w in bases:
        for u in enumerate_words(alphabet, params["u_max"]):
            k_min = math.ceil(len(u) / len(w)) + 1
            for k in (k_min, k_min + 1):
                v = Word._of(alphabet, (w.letters * k + u.letters)[: len(u)])
                if not checks.power_shift_check(w, u, v, k):
                    return {"w": str(w), "u": str(u), "v": str(v), "k": k}
    return None


def full_primitive_root_commutation(params):
    alphabet = Alphabet(params["m"])
    words = [w for w in enumerate_words(alphabet, params["max_len"]) if not w.is_unit()]
    roots = {w: w.primitive_root()[0] for w in words}
    for u in words:
        for w in words:
            if u.commutes_with(w) != (roots[u] == roots[w]):
                return {"u": str(u), "w": str(w)}
    return None


FULL = {
    "words.concat_laws": full_concat_laws,
    "words.cancellation": full_cancellation,
    "words.power_shift_sweep": full_power_shift_sweep,
    "words.primitive_root_commutation": full_primitive_root_commutation,
}


def canonical(letters):
    """``letters`` renamed by first occurrence."""
    names = {}
    return tuple(names.setdefault(a, len(names)) for a in letters)


def stirling2(n, k):
    """S(n, k) by the inclusion-exclusion formula."""
    terms = ((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
    return sum(terms) // math.factorial(k)


def pattern_count(m, *spans, weight=lambda k: 1):
    """The tuples ``_pattern_words`` yields over m letters, each weighted by
    the number k of letters its pattern uses: S(L, k) patterns per split of
    total length L."""
    return sum(
        stirling2(sum(split), k) * weight(k)
        for split in itertools.product(*spans)
        for k in range(min(m, sum(split)) + 1)
    )


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("length", range(7))
def test_every_letter_tuple_renames_to_exactly_one_pattern(m, length):
    patterns = [p for p, _ in checks._patterns(length, range(m))]
    assert len(set(patterns)) == len(patterns)
    assert all(canonical(p) == p for p in patterns)
    assert set(patterns) == {canonical(t) for t in itertools.product(range(m), repeat=length)}
    assert patterns == sorted(patterns)
    counts = sum(stirling2(length, k) for k in range(min(m, length) + 1))
    assert len(patterns) == counts


def test_patterns_are_spelled_in_the_given_letters_and_count_the_letters_used():
    letters = [7, 2, 9]
    for p, used in checks._patterns(4, letters):
        assert used == len(set(p))
        assert p == tuple(letters[a] for a in canonical(p))
    # tails after a prefix that used two letters: its tuples and the new letter
    tails = checks._patterns(1, letters, 2)
    assert tails == [((7,), 2), ((2,), 2), ((9,), 3)]


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_pattern_words_cover_every_relabeling_class_once(m):
    alphabet = Alphabet(m)
    spans = (range(1, 3), range(3))
    found = list(checks._pattern_words(random.Random(m), alphabet, *spans))
    classes = [canonical(u.letters + v.letters) + (len(u),) for u, v in found]
    assert len(set(classes)) == len(classes) == pattern_count(m, *spans)
    expected = {
        canonical(u.letters + v.letters) + (len(u),)
        for u in enumerate_words(alphabet, 2)
        for v in enumerate_words(alphabet, 2)
        if 1 <= len(u)
    }
    assert set(classes) == expected


def test_relabelings_reach_high_letters():
    alphabet = Alphabet(40)
    letters = set()
    for words in checks._pattern_words(random.Random(1), alphabet, range(4), range(4)):
        letters.update(a for w in words for a in w.letters)
    assert max(letters) >= 30


@pytest.mark.parametrize("m", [1, 2, 3, 5, 12])
def test_instance_counts_are_the_instances_the_sweeps_run(monkeypatch, m):
    params = {name.split(".")[1]: checks.CHECKS[name].params(RunConfig(alphabet=m)) for name in FULL}
    n = params["cancellation"]["len"]
    lengths = range(n + 1)

    def set_test_vs(k):
        # the v's up to length n spelled in u's k letters and 2n others; at
        # m = 12 they leave letters out
        return sum(min(m, k + 2 * n) ** j for j in lengths)

    expected = {
        "concat_laws": pattern_count(m, *[range(params["concat_laws"]["len"] + 1)] * 3),
        "cancellation": pattern_count(m, lengths, lengths)
        + pattern_count(m, lengths, weight=set_test_vs),
        "power_shift_sweep": 2
        * pattern_count(
            m,
            range(1, params["power_shift_sweep"]["w_max"] + 1),
            range(params["power_shift_sweep"]["u_max"] + 1),
        ),
        "primitive_root_commutation": pattern_count(
            m, *[range(1, params["primitive_root_commutation"]["max_len"] + 1)] * 2
        ),
    }
    calls = {"mul": 0, "commutes": 0, "power_shift": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(Word, "__mul__", counted("mul", Word.__mul__))
    monkeypatch.setattr(Word, "commutes_with", counted("commutes", Word.commutes_with))
    monkeypatch.setattr(
        checks, "power_shift_check", counted("power_shift", checks.power_shift_check)
    )
    seen = {}
    for name in FULL:
        calls.update(dict.fromkeys(calls, 0))
        check = checks.CHECKS[name]
        assert check.run(check.params(RunConfig(alphabet=m))) is None
        seen[name.split(".")[1]] = dict(calls)
    # a triple takes six products: both unit laws, u v, (u v) w, v w, u (v w)
    assert seen["concat_laws"]["mul"] == 6 * expected["concat_laws"]
    # one product per pair and per set-level product
    assert seen["cancellation"]["mul"] == expected["cancellation"]
    assert seen["power_shift_sweep"]["power_shift"] == expected["power_shift_sweep"]
    assert (
        seen["primitive_root_commutation"]["commutes"] == expected["primitive_root_commutation"]
    )


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("name", list(FULL))
def test_reduced_and_full_sweeps_pass(m, name):
    params = checks.CHECKS[name].params(RunConfig(alphabet=m))
    assert checks.CHECKS[name].run(params) is None
    assert FULL[name](params) is None


def power_shift_wrong_at_length_two(real):
    def planted(w, u, v, k):
        wrong = len(w) == 2 and k == math.ceil(len(u) / len(w)) + 2
        return not wrong and real(w, u, v, k)

    return planted


def commutes_wrong_at_root_length_two(real):
    def planted(self, other):
        return real(self, other) != (len(self.primitive_root()[0]) == 2)

    return planted


def strip_prefix_wrong_at_equal_lengths(real):
    def planted(self, u):
        v = real(self, u)
        return v if v is None or len(v) != len(u) else u * v

    return planted


def mul_merges_letters_off_the_left_factor(real):
    def planted(self, other):
        if self.letters and other.letters and not set(self.letters) & set(other.letters):
            other = Word._of(other.alphabet, (min(other.letters),) * len(other))
        return real(self, other)

    return planted


def mul_swaps_distinct_letters(real):
    def planted(self, other):
        if len(self) == len(other) == 1 and self != other:
            return real(other, self)
        return real(self, other)

    return planted


#: Faults that hold on whole relabeling classes: (owner, attribute, the
#: faulty version of the attribute, the sweep that must catch it).
FAULTS = {
    "power_shift_check": (
        checks, "power_shift_check", power_shift_wrong_at_length_two, "words.power_shift_sweep"
    ),
    "commutes_with": (
        Word, "commutes_with", commutes_wrong_at_root_length_two, "words.primitive_root_commutation"
    ),
    "strip_prefix": (
        Word, "strip_prefix", strip_prefix_wrong_at_equal_lengths, "words.cancellation"
    ),
    "mul": (Word, "__mul__", mul_swaps_distinct_letters, "words.concat_laws"),
}


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("fault", list(FAULTS))
def test_reduced_and_full_sweeps_fail_under_a_planted_fault(monkeypatch, m, fault):
    owner, attr, plant, name = FAULTS[fault]
    params = checks.CHECKS[name].params(RunConfig(alphabet=m))
    monkeypatch.setattr(owner, attr, plant(getattr(owner, attr)))
    full = FULL[name](params)
    reduced = checks.CHECKS[name].run(params)
    if m == 1 and fault in ("commutes_with", "mul"):
        # one letter: no primitive root of length two, no distinct letters
        assert full is None and reduced is None
    else:
        assert full is not None and reduced is not None


#: Cancellation at ten letters: u's letters and the ``2 len`` lowest others
#: are at most 6, so the set test spells its v's in part of the alphabet.
CUT_CANCELLATION = {"m": 10, "len": 2, "seed": 5}


def test_reduced_and_full_cancellation_pass_where_the_letters_are_cut():
    assert checks.CHECKS["words.cancellation"].run(CUT_CANCELLATION) is None
    assert full_cancellation(CUT_CANCELLATION) is None


@pytest.mark.parametrize(
    "owner, attr, plant",
    [FAULTS["strip_prefix"][:3], (Word, "__mul__", mul_merges_letters_off_the_left_factor)],
    ids=["strip_prefix", "mul_merges"],
)
def test_reduced_and_full_cancellation_fail_where_the_letters_are_cut(
    monkeypatch, owner, attr, plant
):
    monkeypatch.setattr(owner, attr, plant(getattr(owner, attr)))
    full = full_cancellation(CUT_CANCELLATION)
    reduced = checks.CHECKS["words.cancellation"].run(CUT_CANCELLATION)
    assert full is not None and reduced is not None
    if attr == "__mul__":
        # a collision among the v's: the set test is the one that fails
        assert set(full) == set(reduced) == {"u"}
