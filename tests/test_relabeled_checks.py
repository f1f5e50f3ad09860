"""The commutant, screens and stabilization checks over relabeling classes.

The commutant check tests one pair per letter pattern of the string uv; the
screens and the stabilization check spell their probes in the letters of the
trial's symbol and a few fresh ones.  The full sweeps below test every pair
or probe and serve as their oracles: both pass on the real code and both
fail under planted faults.
"""

import itertools
import random

import pytest

from ncdisc import checks, derivations
from ncdisc.checks import RunConfig
from ncdisc.derivations import GeneratorDerivation, stabilized_conjugate_sum
from ncdisc.operators import TruncationBasis
from ncdisc.series import Series, conjugate_by
from ncdisc.words import Alphabet, Word, enumerate_words

from oracles import conjugate_vanishing_index


def full_commutant(params):
    alphabet = Alphabet(params["m"])
    basis = TruncationBasis(alphabet, params["cutoff"])
    words = enumerate_words(alphabet, params["pair_max"])
    for u in words:
        for v in words:
            if len(u) + len(v) <= params["pair_max"] and not checks.commutant_check(u, v, basis):
                return {"u": str(u), "v": str(v)}
    return None


def trial_derivations(params):
    """Each trial's derivation, drawn as the checks draw it."""
    rng = random.Random(params["seed"])
    alphabet = Alphabet(params["m"])
    for trial in range(params["trials"]):
        symbol = checks._random_series(rng, alphabet, params["deg"], max_terms=4, min_len=1)
        yield trial, GeneratorDerivation.inner(symbol)


def nonunit_words(alphabet, max_len):
    return [w for w in enumerate_words(alphabet, max_len) if not w.is_unit()]


def full_screens(params):
    """The screens' probe sweep over every nonunit word up to length 3."""
    probes = nonunit_words(Alphabet(params["m"]), 3)
    for trial, derivation in trial_derivations(params):
        for w in probes:
            violation = checks.first_screen_violation(w, derivation.of_word(w))
            if violation is not None:
                screen = violation[0].removesuffix("_support")
                return {"trial": trial, "w": str(w), "screen": screen}
    return None


def full_stabilization(params):
    probes = nonunit_words(Alphabet(params["m"]), 2)
    for trial, derivation in trial_derivations(params):
        for w in probes:
            value = derivation.of_word(w)
            if value.is_zero():
                continue
            index = conjugate_vanishing_index(w, value)
            if index > value.degree() / len(w) + 2:
                return {"trial": trial, "w": str(w), "index": index}
            total = stabilized_conjugate_sum(w, value)
            if value != total - conjugate_by(w, total):
                return {"trial": trial, "w": str(w), "reason": "sum identity"}
    return None


def canonical(letters):
    """``letters`` renamed by first occurrence."""
    names = {}
    return tuple(names.setdefault(a, len(names)) for a in letters)


def counting(monkeypatch, owner, attr):
    """Count the calls of ``owner.attr`` from now on."""
    calls = []
    real = getattr(owner, attr)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, attr, wrapper)
    return calls


@pytest.mark.parametrize("m, pairs", [(1, 10), (2, 25), (3, 29), (12, 29)])
def test_commutant_tests_one_pair_per_pattern_of_uv(monkeypatch, m, pairs):
    # the patterns of each split (|u|, |v|) with |u| + |v| = L <= 3: Bell(L)
    # of them from three letters on, 1 + 2 + 3 * 2 + 4 * 5 = 29 pairs
    params = checks.CHECKS["operators.commutant"].params(RunConfig(alphabet=m))
    calls = counting(monkeypatch, checks, "commutant_check")
    assert checks.CHECKS["operators.commutant"].run(params) is None
    assert len(calls) == pairs
    patterns = {canonical(u.letters + v.letters) + (len(u),) for u, v, _ in calls}
    assert len(patterns) == pairs


@pytest.mark.parametrize("m", [1, 2, 3])
def test_reduced_and_full_commutant_pass(monkeypatch, m):
    params = checks.CHECKS["operators.commutant"].params(RunConfig(alphabet=m))
    assert checks.CHECKS["operators.commutant"].run(params) is None
    calls = counting(monkeypatch, checks, "commutant_check")
    assert full_commutant(params) is None
    # every pair with |u| + |v| <= 3: 142 at three letters
    assert len(calls) == sum((n + 1) * m**n for n in range(4))


def test_commutant_refuses_a_negative_pair_max():
    params = {"m": 2, "cutoff": 3, "pair_max": -1, "seed": 1}
    with pytest.raises(ValueError, match="negative length bound"):
        checks.CHECKS["operators.commutant"].run(params)


def commutant_wrong_on_shared_letters(real):
    def planted(u, v, basis):
        return not set(u.letters) & set(v.letters) and real(u, v, basis)

    return planted


@pytest.mark.parametrize("m", [1, 2, 3])
def test_reduced_and_full_commutant_fail_when_u_and_v_share_a_letter(monkeypatch, m):
    params = checks.CHECKS["operators.commutant"].params(RunConfig(alphabet=m))
    monkeypatch.setattr(
        checks, "commutant_check", commutant_wrong_on_shared_letters(checks.commutant_check)
    )
    alphabet = Alphabet(m)
    for result in (checks.CHECKS["operators.commutant"].run(params), full_commutant(params)):
        assert result is not None
        u, v = alphabet.parse(result["u"]), alphabet.parse(result["v"])
        assert set(u.letters) & set(v.letters)


def orbit_key(fixed, w):
    """``w`` with the letters outside ``fixed`` renamed by first occurrence
    (as negative names): the class of w under the permutations that fix
    ``fixed`` letter by letter."""
    names = {}
    return tuple(a if a in fixed else ~names.setdefault(a, len(names)) for a in w.letters)


def is_probe(fixed, w):
    """The letters of ``w`` outside ``fixed`` are, in order of first
    appearance, the lowest letters outside ``fixed``."""
    firsts = list(dict.fromkeys(a for a in w.letters if a not in fixed))
    others = [a for a in w.alphabet.letters() if a not in fixed]
    return firsts == others[: len(firsts)]


@pytest.mark.parametrize("max_len", [2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_probes_at_three_letters_or_fewer(m, max_len):
    # at m <= 3 the probes are every nonunit word unless the symbol leaves two
    # letters or more out: then the words in which those letters first appear
    # out of order are left out, one probe of each class staying
    alphabet = Alphabet(m)
    for used in itertools.chain.from_iterable(
        itertools.combinations(range(m), k) for k in range(m + 1)
    ):
        symbol = Series._from_valid(alphabet, [(Word._of(alphabet, (a,)), 1.0) for a in used])
        probes = checks._probe_words(alphabet, symbol, max_len)
        words = nonunit_words(alphabet, max_len)
        assert probes == [w for w in words if is_probe(used, w)]
        assert (probes == words) == (len(used) >= m - 1)


def test_probes_are_spelled_in_the_symbols_letters_and_the_lowest_others():
    alphabet = Alphabet(40)
    symbol = Series._from_valid(alphabet, [(Word._of(alphabet, (3, 17, 3)), 1.0)])
    probes = checks._probe_words(alphabet, symbol, 3)
    assert {a for w in probes for a in w.letters} == {0, 1, 2, 3, 17}
    assert all(is_probe({3, 17}, w) for w in probes)
    # by the number j of places outside the symbol's 2 letters: C(n, j) 2^(n-j) Bell(j)
    assert len(probes) == (2 + 1) + (4 + 4 + 2) + (8 + 12 + 12 + 5)
    assert probes == sorted(probes)


FULL = {
    "derivations.screens": full_screens,
    "derivations.stabilization": full_stabilization,
}


@pytest.mark.parametrize("m", [2, 3, 12])
@pytest.mark.parametrize("name", list(FULL))
def test_reduced_and_full_derivation_checks_pass(m, name):
    params = checks.CHECKS[name].params(RunConfig(alphabet=m))
    assert checks.CHECKS[name].run(params) is None
    assert FULL[name](params) is None


@pytest.mark.parametrize("m", [2, 3, 12])
@pytest.mark.parametrize("name", list(FULL))
def test_derivation_checks_expand_each_probe_once(monkeypatch, m, name):
    probes = []
    real_probes = checks._probe_words

    def probe_words(*args):
        words = real_probes(*args)
        probes.extend(words)
        return words

    monkeypatch.setattr(checks, "_probe_words", probe_words)
    expanded = counting(monkeypatch, GeneratorDerivation, "of_word")
    check = checks.CHECKS[name]
    assert check.run(check.params(RunConfig(alphabet=m))) is None
    assert [w for _, w in expanded] == probes


@pytest.mark.parametrize("m", [2, 3, 12])
def test_stabilization_builds_one_iterate_list_per_nonzero_probe(monkeypatch, m):
    # the iterate list gives both the vanishing index and the stabilized sum
    nonzero = []
    real_of_word = GeneratorDerivation.of_word

    def of_word(self, w):
        value = real_of_word(self, w)
        if not value.is_zero():
            nonzero.append(w)
        return value

    monkeypatch.setattr(GeneratorDerivation, "of_word", of_word)
    calls = counting(monkeypatch, derivations, "_conjugate_iterates")
    monkeypatch.setattr(checks, "_conjugate_iterates", derivations._conjugate_iterates, raising=False)
    check = checks.CHECKS["derivations.stabilization"]
    assert check.run(check.params(RunConfig(alphabet=m))) is None
    assert nonzero and [w for w, _ in calls] == nonzero


@pytest.mark.parametrize("m", [3, 12, 40])
def test_probes_are_one_word_of_each_relabeling_class(m):
    # each trial's probes meet every class of the nonunit words up to length
    # 3 under the permutations that fix the symbol's letters, once
    alphabet = Alphabet(m)
    params = checks.CHECKS["derivations.screens"].params(RunConfig(alphabet=m))
    rng = random.Random(params["seed"])
    words = nonunit_words(alphabet, 3)
    for _ in range(params["trials"]):
        symbol = checks._random_series(rng, alphabet, params["deg"], max_terms=4, min_len=1)
        fixed = symbol.letters_used()
        reduced = [orbit_key(fixed, w) for w in checks._probe_words(alphabet, symbol, 3)]
        assert len(set(reduced)) == len(reduced)
        assert set(reduced) == {orbit_key(fixed, w) for w in words}


def short_screen_ignoring_weight_off_the_symbols_letters(monkeypatch):
    """Plant a short screen that weighs the value's long words only over the
    letters of the last symbol made inner, against the value's whole weight:
    a probe with a letter outside them fails it whenever its value is nonzero.
    Returns the list of the symbols made inner."""
    symbols = []
    real_inner = GeneratorDerivation.inner.__func__

    def inner(cls, t):
        symbols.append(t)
        return real_inner(cls, t)

    real_screen = checks.first_screen_violation

    def planted(w, value):
        violation = real_screen(w, value)
        terms = list(value.iter_terms())
        letters = symbols[-1].letters_used()
        kept = [abs(c) for u, c in terms if len(u) >= len(w) and letters.issuperset(u.letters)]
        if violation is not None or sum(kept) == sum(abs(c) for _, c in terms):
            return violation
        return ("short_support",) + terms[0]

    monkeypatch.setattr(GeneratorDerivation, "inner", classmethod(inner))
    monkeypatch.setattr(checks, "first_screen_violation", planted)
    return symbols


def test_reduced_and_full_screens_fail_on_weight_off_the_symbols_letters(monkeypatch):
    params = checks.CHECKS["derivations.screens"].params(RunConfig(alphabet=12))
    symbols = short_screen_ignoring_weight_off_the_symbols_letters(monkeypatch)
    for run in (checks.CHECKS["derivations.screens"].run, full_screens):
        symbols.clear()
        result = run(params)
        assert result is not None and result["screen"] == "short"
        letters = Alphabet(12).parse(result["w"]).letters
        assert not symbols[result["trial"]].letters_used().issuperset(letters)
    # the fresh letters catch it: probes spelled in the symbol's letters alone miss it
    monkeypatch.setattr(checks, "_fresh", lambda alphabet, used, count: [])
    assert checks.CHECKS["derivations.screens"].run(params) is None
