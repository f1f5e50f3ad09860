import json
import random
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ncdisc.checks import _random_series, _random_word
from ncdisc.derivations import (
    GeneratorDerivation,
    InconsistentDerivationError,
    first_screen_violation,
    inner_derivation,
    normal_approx_check,
    solve_inner_symbol,
    solve_local_inner,
    stabilized_conjugate_sum,
)
from ncdisc.series import PRUNE_EPS, Series, conjugate_by, convolve, max_coeff_diff
from ncdisc.words import Alphabet, enumerate_words

from oracles import conjugate_vanishing_index, of_word_power

A2 = Alphabet(2)
A3 = Alphabet(3)
E = A2.unit()
Z0 = A2.generator(0)
Z1 = A2.generator(1)


def w2(*letters):
    return A2.word(letters)


def xi(*letters):
    return Series.basis(A2.word(letters))


# -- commutator derivations -----------------------------------------------------


def test_inner_derivation_examples():
    assert inner_derivation(Series.unit(A2), xi(1, 0)).is_zero()
    assert inner_derivation(xi(0), xi(1)) == xi(1, 0) - xi(0, 1)
    assert inner_derivation(xi(0), xi(0)).is_zero()


def _commutator_reference(t, phi):
    """Reference: the two products, each summed and pruned, then subtracted."""
    return convolve(phi, t) - convolve(t, phi)


def _bits(series):
    """Terms with each coefficient as the exact bits of its two parts."""
    return {w: (c.real.hex(), c.imag.hex()) for w, c in series.iter_terms()}


@st.composite
def _words(draw, alphabet, max_len=3):
    return alphabet.word(draw(st.lists(st.integers(0, alphabet.size - 1), max_size=max_len)))


@st.composite
def _series(draw, alphabet, coefficient, max_terms=6):
    terms = draw(st.dictionaries(_words(alphabet), coefficient, max_size=max_terms))
    return Series(alphabet, terms)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
#: Gaussian integers and dyadics k / 2^j: every product and sum below is exact.
EXACT_PART = st.one_of(
    st.integers(-4, 4).map(float),
    st.builds(lambda k, j: k / 2**j, st.integers(-64, 64), st.integers(0, 6)),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_inner_derivation_at_a_basis_word_matches_the_reference_bit_for_bit(data):
    # xi_w has one term of weight 1, so no product of the reference falls
    # to PRUNE_EPS before the subtraction: the one step sees the same sums
    alphabet = Alphabet(data.draw(st.integers(1, 3)))
    t = data.draw(_series(alphabet, st.builds(complex, FINITE, FINITE)))
    phi = Series.basis(data.draw(_words(alphabet)))
    assert _bits(inner_derivation(t, phi)) == _bits(_commutator_reference(t, phi))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_inner_derivation_matches_the_reference_on_exact_coefficients(data):
    # one or two letters and short words, so that several terms of each
    # product land on one key and terms of the two products cancel
    alphabet = Alphabet(data.draw(st.integers(1, 2)))
    coefficient = st.builds(complex, EXACT_PART, EXACT_PART)
    t = data.draw(_series(alphabet, coefficient))
    phi = data.draw(_series(alphabet, coefficient))
    assert inner_derivation(t, phi) == _commutator_reference(t, phi)


def test_inner_derivation_sums_keys_that_several_terms_hit():
    # z0 * z1z0 = z0z1 * z0, z0 * z0z0 = z0z0 * z0, and e * u = u * e
    t = xi(1, 0) - 2 * xi(0, 1) + 0.5 * xi(0, 0)
    phi = xi(0) + 3 * xi()
    expected = xi(0, 1, 0) - 2 * xi(0, 0, 1) + 0.5 * xi(0, 0, 0)
    expected = expected - (xi(1, 0, 0) - 2 * xi(0, 1, 0) + 0.5 * xi(0, 0, 0))
    assert inner_derivation(t, phi) == expected == _commutator_reference(t, phi)


def test_inner_derivation_prunes_only_the_sum():
    # a scaled one-term phi whose products sit at PRUNE_EPS: the reference
    # prunes each product before subtracting, the one step prunes the sum
    t = Series(A2, {w2(1, 0): 1e-11, w2(0, 1): -1e-11})
    phi = Series(A2, {Z0: 1e-3})
    assert abs(1e-3 * 1e-11) <= PRUNE_EPS
    assert _commutator_reference(t, phi).is_zero()
    assert inner_derivation(t, phi).coeff(w2(0, 1, 0)) == 2 * (1e-3 * 1e-11)


def test_generator_derivation_construction():
    derivation = GeneratorDerivation(A2, {0: xi(1)})
    assert derivation.value(0) == xi(1)
    assert derivation.value(1).is_zero()
    with pytest.raises(ValueError):
        GeneratorDerivation(A2, {2: xi(0)})
    with pytest.raises(ValueError):
        GeneratorDerivation(A2, {0: Series.basis(A3.generator(0))})


def test_of_word_base_cases():
    symbol = xi(0, 1) + 2 * xi(1)
    derivation = GeneratorDerivation.inner(symbol)
    assert derivation.of_word(E).is_zero()
    assert derivation.of_word(Z0) == derivation.value(0)


def test_of_word_matches_commutator():
    rng = random.Random(3)
    for _ in range(30):
        symbol = _random_series(rng, A2, 3, max_terms=4, min_len=1)
        derivation = GeneratorDerivation.inner(symbol)
        w = A2.word(rng.randrange(2) for _ in range(rng.randint(0, 4)))
        assert derivation.of_word(w) == inner_derivation(symbol, Series.basis(w))


def test_leibniz_consistency():
    rng = random.Random(5)
    for _ in range(30):
        values = {a: _random_series(rng, A2, 3, max_terms=4) for a in (0, 1)}
        derivation = GeneratorDerivation(A2, values)
        u = A2.word(rng.randrange(2) for _ in range(rng.randint(0, 3)))
        v = A2.word(rng.randrange(2) for _ in range(rng.randint(0, 3)))
        expanded = derivation.of_word(u * v)
        split = convolve(Series.basis(u), derivation.of_word(v)) + convolve(
            derivation.of_word(u), Series.basis(v)
        )
        assert expanded == split


def test_of_word_power():
    rng = random.Random(7)
    symbol = _random_series(rng, A2, 3, max_terms=4, min_len=1)
    derivation = GeneratorDerivation.inner(symbol)
    w = w2(0, 1)
    assert of_word_power(derivation, w, 1) == derivation.of_word(w)
    for k in (2, 3):
        assert of_word_power(derivation, w, k) == inner_derivation(
            symbol, Series.basis(w**k)
        )
    with pytest.raises(ValueError):
        of_word_power(derivation, w, 0)


def test_of_word_power_growth_mechanism():
    # weight at a word commuting with w is multiplied by k along powers:
    # every sandwich w^{k-1-m} u w^m collapses to the same word w^{k-1} u
    derivation = GeneratorDerivation(A2, {0: xi(0)})
    for k in (1, 2, 5):
        expanded = of_word_power(derivation, Z0, k)
        assert expanded == k * Series.basis(Z0**k)


# -- necessary-condition screens --------------------------------------------------


def test_screens_pass_for_inner_data():
    rng = random.Random(11)
    probes = [w for w in enumerate_words(A2, 4) if not w.is_unit()]
    for _ in range(10):
        derivation = GeneratorDerivation.inner(_random_series(rng, A2, 3, max_terms=4, min_len=1))
        for w in probes:
            assert first_screen_violation(w, derivation.of_word(w)) is None


def test_screens_catch_unit_weight():
    poisoned = GeneratorDerivation(A2, {0: Series.unit(A2)})
    # the unit is short and commutes with every word: the commuting screen wins
    assert first_screen_violation(Z0, poisoned.of_word(Z0)) == ("commuting_support", E, 1)


def test_short_screen_reports_the_first_short_term_after_every_commuting_check():
    value = xi(1) * 2 + xi(0, 1, 0) - xi(0)
    # z1 and z0 are short at z0z1 and no term commutes with it: the first is reported
    assert first_screen_violation(w2(0, 1), value) == ("short_support", w2(1), 2)
    # a later commuting term is reported before an earlier short one
    assert first_screen_violation(w2(0, 1), value + xi(0, 1) * 3) == (
        "commuting_support",
        w2(0, 1),
        3,
    )


def test_zero_derivation_passes_screens():
    zero = GeneratorDerivation(A2, {})
    for w in (Z0, w2(0, 1)):
        assert first_screen_violation(w, zero.of_word(w)) is None


# -- conjugate sums ----------------------------------------------------------------


def test_stabilized_sum_identity():
    rng = random.Random(13)
    for _ in range(25):
        symbol = _random_series(rng, A2, 3, max_terms=4, min_len=1)
        derivation = GeneratorDerivation.inner(symbol)
        for w in (Z0, Z1, w2(0, 1)):
            value = derivation.of_word(w)
            total = stabilized_conjugate_sum(w, value)
            assert value == total - conjugate_by(w, total)


def _reference_stabilized_sum(derivation, w):
    """The conjugate_by iterates of D(w) up to the first empty one, summed in
    one canonical step in iterate order."""
    phi = derivation.of_word(w)
    iterates = []
    for _ in range(100):
        if phi.is_zero():
            return phi._like(chain.from_iterable(s.iter_terms() for s in iterates))
        iterates.append(phi)
        phi = conjugate_by(w, phi)
    raise AssertionError("iterates did not vanish")


def _bits(series):
    return [(str(w), c.real.hex(), c.imag.hex()) for w, c in series.iter_terms()]


#: The float-weight solver goldens of tests/data/solvers (see test_cli.GOLDEN_CASES).
FLOAT_GOLDENS = [
    f"float_m{m}_s{seed}" for m, seed in ((2, 1), (2, 2), (2, 6), (3, 7), (3, 8), (3, 9))
]


@pytest.mark.parametrize("case", FLOAT_GOLDENS)
def test_stabilized_sum_keeps_the_bits_of_the_iterate_sum_on_float_data(case):
    path = Path(__file__).parent / "data" / "solvers" / f"{case}.json"
    derivation = GeneratorDerivation.from_json_dict(json.loads(path.read_text()))
    alphabet = derivation.alphabet
    for w in enumerate_words(alphabet, 2)[1:]:
        expected = _reference_stabilized_sum(derivation, w)
        assert _bits(stabilized_conjugate_sum(w, derivation.of_word(w))) == _bits(expected)


def test_stabilized_sum_zero_value():
    derivation = GeneratorDerivation(A2, {})
    assert stabilized_conjugate_sum(Z0, derivation.of_word(Z0)).is_zero()
    with pytest.raises(ValueError):
        stabilized_conjugate_sum(E, derivation.of_word(E))


def test_stabilization_index_bound():
    rng = random.Random(17)
    for _ in range(25):
        symbol = _random_series(rng, A2, 3, max_terms=4, min_len=1)
        derivation = GeneratorDerivation.inner(symbol)
        for w in (Z0, Z1, w2(1, 0)):
            value = derivation.of_word(w)
            if value.is_zero():
                continue
            index = conjugate_vanishing_index(w, value)
            assert index <= value.degree() / len(w) + 2


def test_persistent_conjugates_reported():
    # weight on a commuting word never dies under transport
    poisoned = GeneratorDerivation(A2, {0: xi(0, 0)})
    with pytest.raises(InconsistentDerivationError) as info:
        stabilized_conjugate_sum(Z0, poisoned.of_word(Z0))
    assert info.value.check == "persistent_conjugates"


# -- local solving -----------------------------------------------------------------


def test_solve_local_worked_example():
    # symbol xi_{z0z1}: the stabilized sum at z0 telescopes to xi_{z0z0z1}
    symbol = xi(0, 1)
    derivation = GeneratorDerivation.inner(symbol)
    assert stabilized_conjugate_sum(Z0, derivation.of_word(Z0)) == xi(0, 0, 1)
    recovered = solve_local_inner(derivation, Z0)
    assert recovered == symbol
    assert inner_derivation(recovered, xi(0)) == derivation.value(0)


def test_solve_local_zero_value():
    derivation = GeneratorDerivation(A2, {1: xi(1, 0) - xi(0, 1)})
    assert solve_local_inner(derivation, Z0).is_zero()
    with pytest.raises(ValueError):
        solve_local_inner(derivation, E)


def test_solve_local_randomized():
    rng = random.Random(19)
    for _ in range(25):
        symbol = _random_series(rng, A2, 3, max_terms=4, min_len=1)
        derivation = GeneratorDerivation.inner(symbol)
        for w in (Z0, Z1, w2(0, 1), w2(1, 1, 0)):
            local = solve_local_inner(derivation, w)
            assert inner_derivation(local, Series.basis(w)) == derivation.of_word(w)


def test_solve_local_reports_residual():
    # value at z0 sits on z1z1: transport dies instantly, sum is not divisible
    poisoned = GeneratorDerivation(A2, {0: xi(1, 1)})
    with pytest.raises(InconsistentDerivationError) as info:
        solve_local_inner(poisoned, Z0)
    assert info.value.check == "residual"
    assert info.value.word == w2(1, 1)


# -- global solving -----------------------------------------------------------------


def test_solve_global_worked_example():
    # symbol z0: nothing to do at the first generator, the second one
    # carries xi_{z1z0} - xi_{z0z1} and strips back to xi_{z0}
    derivation = GeneratorDerivation.inner(xi(0))
    assert derivation.value(0).is_zero()
    assert derivation.value(1) == xi(1, 0) - xi(0, 1)
    assert solve_inner_symbol(derivation) == xi(0)


def test_solve_global_zero():
    assert solve_inner_symbol(GeneratorDerivation(A2, {})).is_zero()


def test_solve_global_roundtrip():
    rng = random.Random(23)
    for alphabet in (A2, A3):
        for _ in range(25):
            symbol = _random_series(rng, alphabet, 3, max_terms=4, min_len=1)
            derivation = GeneratorDerivation.inner(symbol)
            recovered = solve_inner_symbol(derivation)
            assert recovered == symbol
            for a in alphabet.letters():
                gen = Series.basis(alphabet.generator(a))
                assert inner_derivation(recovered, gen) == derivation.value(a)


def test_solve_global_matches_linear_system_oracle():
    # independent route: the commutator equations are linear in the symbol,
    # so least squares over the word basis must recover it (the kernel of
    # the commutator map is spanned by the unit word, which is excluded)
    import numpy as np

    rng = random.Random(43)
    for _ in range(10):
        symbol = _random_series(rng, A2, 3, max_terms=4, min_len=1)
        derivation = GeneratorDerivation.inner(symbol)
        value_deg = max(
            int(derivation.value(a).degree())
            for a in range(2)
            if not derivation.value(a).is_zero()
        )
        unknowns = [w for w in enumerate_words(A2, value_deg - 1) if not w.is_unit()]
        index = {w: i for i, w in enumerate(unknowns)}
        rows, rhs = [], []
        for a in range(2):
            gen = A2.generator(a)
            for w in enumerate_words(A2, value_deg):
                row = np.zeros(len(unknowns))
                stripped = w.strip_prefix(gen)
                if stripped is not None and stripped in index:
                    row[index[stripped]] += 1.0
                chopped = w.strip_suffix(gen)
                if chopped is not None and chopped in index:
                    row[index[chopped]] -= 1.0
                rows.append(row)
                rhs.append(derivation.value(a).coeff(w))
        matrix = np.array(rows)
        target = np.array(rhs)
        solution, *_ = np.linalg.lstsq(matrix, target, rcond=None)
        assert np.max(np.abs(matrix @ solution - target)) < 1e-9
        oracle = Series(A2, {w: solution[i] for w, i in index.items()})
        assert max_coeff_diff(oracle, solve_inner_symbol(derivation)) <= 1e-9


def test_solve_global_deeper_symbols():
    # longer transport chains: degree up to 5 forces more conjugate steps
    rng = random.Random(47)
    for _ in range(10):
        symbol = _random_series(rng, A3, 5, max_terms=6, min_len=1)
        derivation = GeneratorDerivation.inner(symbol)
        assert solve_inner_symbol(derivation) == symbol


def test_solve_global_normalizes_unit_weight():
    symbol = xi(0, 1) + 2 * xi(1)
    shifted = symbol + 5 * Series.unit(A2)
    recovered = solve_inner_symbol(GeneratorDerivation.inner(shifted))
    assert recovered == symbol


def test_solve_global_single_generator():
    alphabet = Alphabet(1)
    gen = Series.basis(alphabet.generator(0))
    # commutator with any symbol over one generator vanishes; only the zero
    # derivation is consistent, and it recovers the zero symbol
    derivation = GeneratorDerivation.inner(2 * convolve(gen, gen))
    assert derivation.value(0).is_zero()
    assert solve_inner_symbol(derivation).is_zero()


def test_solve_global_symbol_on_first_generator_powers():
    # the first-generator step contributes nothing; the pair structure at the
    # second generator carries everything
    symbol = xi(0) + 2 * xi(0, 0)
    derivation = GeneratorDerivation.inner(symbol)
    assert derivation.value(0).is_zero()
    assert derivation.value(1) == (xi(1, 0) - xi(0, 1)) + 2 * (xi(1, 0, 0) - xi(0, 0, 1))
    assert solve_inner_symbol(derivation) == symbol


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_solve_global_drops_the_unit_weight_bit_for_bit(m):
    # symbols with a unit weight and powers of z0, the terms the peels add;
    # dyadic weights keep every sum exact, so the recovered symbol is the
    # input without its unit term, bit for bit.  At m = 1 every symbol is
    # central, so the derivation and the recovered symbol are zero.
    rng = random.Random(61 + m)
    alphabet = Alphabet(m)

    def weight():
        return complex(*(rng.randint(-9, 9) * 2.0 ** rng.randint(-20, 20) for _ in range(2)))

    for _ in range(20):
        table = {alphabet.unit(): weight()}
        for k in range(1, 4):
            table[alphabet.word([0] * k)] = weight()
        for _ in range(4 if m > 1 else 0):
            table[_random_word(rng, alphabet, 4, 1)] = weight()
        symbol = Series(alphabet, table)
        recovered = solve_inner_symbol(GeneratorDerivation.inner(symbol))
        expected = {} if m == 1 else {w: c for w, c in symbol.iter_terms() if not w.is_unit()}
        assert _hex(recovered.table) == _hex(expected)


def _hex(table):
    return {w: (c.real.hex(), c.imag.hex()) for w, c in table.items()}


def test_solve_global_screens_unit_weight():
    poisoned = GeneratorDerivation(A2, {0: Series.unit(A2)})
    with pytest.raises(InconsistentDerivationError) as info:
        solve_inner_symbol(poisoned)
    assert info.value.check == "commuting_support"
    assert info.value.word == E


def test_solve_global_reports_broken_pair():
    # value at z1 has no partner term, so no symbol can produce it
    poisoned = GeneratorDerivation(A2, {1: xi(1, 0)})
    with pytest.raises(InconsistentDerivationError) as info:
        solve_inner_symbol(poisoned)
    assert info.value.check == "pair_structure"


def test_solve_global_reports_family_violation():
    # a term outside the pairing family at the second generator
    poisoned = GeneratorDerivation(A2, {1: xi(0, 1, 1) - xi(1, 1, 0)})
    with pytest.raises(InconsistentDerivationError) as info:
        solve_inner_symbol(poisoned)
    assert info.value.check == "pair_structure"


# -- smoothing pipeline ---------------------------------------------------------------


def test_normal_approx_exact_once_letters_cover():
    rng = random.Random(29)
    for _ in range(25):
        symbol = _random_series(rng, A3, 3, max_terms=4, min_len=1)
        phi = _random_series(rng, A3, 3, max_terms=4)
        for k in (1, 2, 8, 64):
            assert normal_approx_check(symbol, phi, k, {0, 1, 2})
            assert normal_approx_check(symbol, phi, k, set(phi.letters_used()))


def test_normal_approx_partial_letters():
    rng = random.Random(31)
    for _ in range(25):
        symbol = _random_series(rng, A3, 3, max_terms=4, min_len=1)
        phi = _random_series(rng, A3, 3, max_terms=4)
        assert normal_approx_check(symbol, phi, rng.randint(1, 32), {0})


def test_normal_approx_unit_argument():
    symbol = xi(0, 1)
    unit = Series.unit(A2)
    for k in (1, 5):
        assert normal_approx_check(symbol, unit, k, set())
        assert inner_derivation(symbol, unit).is_zero()


# -- interchange format -----------------------------------------------------------------


def test_json_roundtrip():
    derivation = GeneratorDerivation.inner(xi(0, 1) - 2j * xi(1))
    data = json.loads(json.dumps(derivation.to_json_dict()))
    loaded = GeneratorDerivation.from_json_dict(data)
    for a in range(2):
        assert loaded.value(a) == derivation.value(a)


def test_json_rejects_mismatched_alphabet():
    bad = {
        "alphabet": 2,
        "values": {"0": {"alphabet": 3, "terms": [{"word": "z2", "re": 1.0, "im": 0.0}]}},
    }
    with pytest.raises(ValueError):
        GeneratorDerivation.from_json_dict(bad)
