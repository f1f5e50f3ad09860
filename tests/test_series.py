import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ncdisc.checks import _random_series
from ncdisc.cli import main
from ncdisc.cohomology import Cochain, coboundary, homotopy
from ncdisc.series import (
    PRUNE_EPS,
    ZERO_DEGREE,
    Series,
    adjoint_shift,
    cesaro,
    conditional_expectation,
    conjugate_by,
    convolve,
    first_letter_part,
    max_coeff_diff,
)
from ncdisc.words import Alphabet, Word, transport

from oracles import degree_part

A2 = Alphabet(2)
A3 = Alphabet(3)
E = A2.unit()
Z0 = A2.generator(0)
Z1 = A2.generator(1)
DELTA_E = Series.unit(A2)


def w2(*letters):
    return A2.word(letters)


def xi(*letters):
    return Series.basis(A2.word(letters))


def words_strategy(alphabet, max_len=3):
    return st.lists(
        st.integers(0, alphabet.size - 1), max_size=max_len
    ).map(lambda ls: alphabet.word(ls))


def series_strategy(alphabet, max_len=3):
    coeff = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
        lambda ab: complex(*ab)
    )
    return st.dictionaries(
        words_strategy(alphabet, max_len), coeff, max_size=4
    ).map(lambda table: Series(alphabet, table))


# -- basics ----------------------------------------------------------------


def test_basis_examples():
    assert Series.basis(E).coeff(E) == 1
    assert xi(0).coeff(Z0) == 1
    assert xi(0).coeff(Z1) == 0
    combined = Series.basis(Z0) + Series.basis(Z1)
    assert combined.support() == {Z0, Z1}


def test_zero_series_and_pruning():
    zero = Series.zero(A2)
    assert zero.is_zero()
    assert zero.degree() == ZERO_DEGREE
    cancelled = xi(0) - xi(0)
    assert cancelled.is_zero()
    dust = Series(A2, {Z0: PRUNE_EPS / 2})
    assert dust.is_zero()


def test_a_modulus_past_float_range_is_kept():
    # abs() of this finite coefficient overflows; the prune keeps it, with
    # modulus inf, next to a term it drops
    one = Alphabet(1)
    huge = complex(1.7e308, 1.7e308)
    series = Series(one, {one.unit(): huge, one.generator(0): PRUNE_EPS / 2})
    assert series.table == {one.unit(): huge}


def test_mixed_alphabets_rejected():
    with pytest.raises(ValueError):
        xi(0) + Series.basis(A3.generator(0))
    with pytest.raises(ValueError):
        Series(A2, {A3.generator(0): 1.0})


# -- convolution ------------------------------------------------------------


def test_convolve_on_basis_is_concat():
    assert convolve(xi(0), xi(1)) == xi(0, 1)
    assert convolve(xi(0, 1), xi(1, 0)) == xi(0, 1, 1, 0)


def test_convolve_worked_example():
    # (xi_{z0} + xi_{z0z1}) * xi_{z1}, expanded by the double sum by hand
    left = xi(0) + xi(0, 1)
    assert convolve(left, xi(1)) == xi(0, 1) + xi(0, 1, 1)


def test_convolution_unit():
    phi = 2 * xi(0) + 3j * xi(1, 1)
    assert convolve(DELTA_E, phi) == phi
    assert convolve(phi, DELTA_E) == phi


def test_convolve_prefix_sum_definition():
    # independent route: sum over prefix splittings of each output word
    rng = random.Random(3)
    for _ in range(50):
        phi = _random_series(rng, A2, 3, max_terms=4)
        psi = _random_series(rng, A2, 3, max_terms=4)
        product = convolve(phi, psi)
        support = {u * v for u in phi.support() for v in psi.support()}
        for w in support | product.support():
            total = 0j
            for i in range(len(w) + 1):
                u = A2.word(w.letters[:i])
                v = A2.word(w.letters[i:])
                total += phi.coeff(u) * psi.coeff(v)
            assert product.coeff(w) == total


@settings(max_examples=100)
@given(series_strategy(A2), series_strategy(A2), series_strategy(A2))
def test_convolution_associative(phi, psi, rho):
    assert convolve(convolve(phi, psi), rho) == convolve(phi, convolve(psi, rho))


@settings(max_examples=100)
@given(series_strategy(A2), series_strategy(A2))
def test_degree_additive(phi, psi):
    # the graded-lex maxima of the top-degree parts hit their product word
    # exactly once (the length split is forced), so no cancellation at the top
    product = convolve(phi, psi)
    if not phi.is_zero() and not psi.is_zero():
        assert product.degree() == phi.degree() + psi.degree()
    else:
        assert product.is_zero()


def test_right_apply():
    # the right convolution operator with symbol phi sends x to x * phi
    assert convolve(xi(0), xi(1)) == xi(0, 1)
    assert convolve(xi(0, 1), DELTA_E) == xi(0, 1)
    rng = random.Random(5)
    for _ in range(25):
        phi, psi, x = (_random_series(rng, A2, 2, max_terms=4) for _ in range(3))
        twice = convolve(convolve(x, psi), phi)
        once = convolve(x, convolve(psi, phi))
        assert twice == once


# -- adjoint shift and conjugation -------------------------------------------


def test_adjoint_shift_examples():
    assert adjoint_shift(Z0, xi(0, 1)) == xi(1)
    assert adjoint_shift(Z0, xi(1, 0)).is_zero()
    assert adjoint_shift(Z0, 2 * xi(0) + 3 * xi(1)) == 2 * DELTA_E


def test_adjoint_shift_is_contraction():
    rng = random.Random(11)
    for _ in range(25):
        phi = _random_series(rng, A2, 3, max_terms=4)
        assert adjoint_shift(Z0, phi).l2_norm() <= phi.l2_norm() + 1e-12


def test_conjugate_examples():
    assert conjugate_by(Z0, xi(1)).is_zero()
    assert conjugate_by(Z0, xi(0)) == xi(0)
    assert conjugate_by(w2(0, 1), xi(0, 1, 0, 1)) == xi(0, 1, 0, 1)
    assert conjugate_by(E, xi(1, 0)) == xi(1, 0)


def test_conjugate_matches_transport():
    rng = random.Random(13)
    for _ in range(50):
        w = A2.word(rng.randrange(2) for _ in range(rng.randint(0, 2)))
        phi = _random_series(rng, A2, 3, max_terms=4)
        moved = conjugate_by(w, phi)
        for u, c in phi.iter_terms():
            v = transport(w, u)
            if v is not None:
                assert moved.coeff(v) == c


# -- degree parts, smoothing, restriction -------------------------------------


def test_degree_part_examples():
    phi = 3 * DELTA_E + xi(0)
    assert degree_part(phi, 0) == 3 * DELTA_E
    assert degree_part(xi(0, 1), 2) == xi(0, 1)
    rng = random.Random(17)
    for _ in range(20):
        psi = _random_series(rng, A2, 4, max_terms=4)
        total = Series.zero(A2)
        for j in range(6):
            total = total + degree_part(psi, j)
        assert total == psi


def test_cesaro_worked_example():
    phi = DELTA_E + xi(0) + xi(0, 0)
    assert cesaro(phi, 2) == DELTA_E + 0.5 * xi(0)


def test_cesaro_weights():
    phi = DELTA_E + xi(0) + xi(0, 0)
    k = 5
    smoothed = cesaro(phi, k)
    for j, word in enumerate([E, Z0, w2(0, 0)]):
        assert smoothed.coeff(word) == 1 - j / k
    assert cesaro(DELTA_E, 3) == DELTA_E
    with pytest.raises(ValueError):
        cesaro(phi, 0)


def test_cesaro_defect_bound():
    rng = random.Random(19)
    for _ in range(50):
        phi = _random_series(rng, A2, 4, max_terms=4)
        if phi.is_zero():
            continue
        for k in (2, 3, 8, 32):
            defect = (cesaro(phi, k) - phi).l2_norm()
            assert defect <= (phi.degree() / k) * phi.l2_norm() + 1e-12


def test_conditional_expectation_examples():
    assert conditional_expectation(xi(0, 1), [0]).is_zero()
    assert conditional_expectation(xi(0, 0) + xi(1), [0]) == xi(0, 0)
    assert conditional_expectation(xi(0, 1), []).is_zero()
    assert conditional_expectation(DELTA_E, []) == DELTA_E  # unit has no letters
    with pytest.raises(ValueError):
        conditional_expectation(xi(0), [2])


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize(
    "refuse",
    [
        lambda alphabet, m: Word(alphabet, (0, m)),
        lambda alphabet, m: alphabet.parse(f"z0z{m}"),
        lambda alphabet, m: conditional_expectation(Series.unit(alphabet), [0, m]),
        lambda alphabet, m: first_letter_part(Series.unit(alphabet), m),
    ],
    ids=["Word", "Alphabet.parse", "conditional_expectation", "first_letter_part"],
)
def test_letter_m_is_refused_with_one_message(refuse, m):
    alphabet = Alphabet(m)
    with pytest.raises(ValueError, match=f"^letter {m} outside alphabet of size {m}$"):
        refuse(alphabet, m)


def test_conditional_expectation_multiplicative():
    rng = random.Random(23)
    for _ in range(200):
        phi = _random_series(rng, A3, 3, max_terms=4)
        psi = _random_series(rng, A3, 3, max_terms=4)
        subset = [a for a in range(3) if rng.random() < 0.5]
        lhs = conditional_expectation(convolve(phi, psi), subset)
        rhs = convolve(
            conditional_expectation(phi, subset),
            conditional_expectation(psi, subset),
        )
        assert lhs == rhs


def test_conditional_expectation_fixes_covered_series():
    rng = random.Random(29)
    for _ in range(50):
        phi = _random_series(rng, A3, 3, max_terms=4)
        assert conditional_expectation(phi, phi.letters_used()) == phi


def test_restrictions_contract_and_idempotent():
    rng = random.Random(31)
    for _ in range(50):
        phi = _random_series(rng, A2, 4, max_terms=4)
        for part in (
            conditional_expectation(phi, [0]),
            first_letter_part(phi, 0),
            degree_part(phi, 2),
        ):
            assert part.l2_norm() <= phi.l2_norm() + 1e-12
    assert first_letter_part(first_letter_part(phi, 1), 1) == first_letter_part(phi, 1)
    assert conditional_expectation(
        conditional_expectation(phi, [0]), [0]
    ) == conditional_expectation(phi, [0])


def test_first_letter_part_examples():
    phi = 2 * DELTA_E + 3 * xi(0, 1) + xi(1)
    assert first_letter_part(phi, 0) == 3 * xi(0, 1)
    with pytest.raises(ValueError):
        first_letter_part(phi, 5)


def test_first_letter_partition():
    rng = random.Random(37)
    for _ in range(50):
        phi = _random_series(rng, A2, 4, max_terms=4)
        total = phi.coeff(E) * DELTA_E
        for a in range(2):
            total = total + first_letter_part(phi, a)
        assert total == phi


# -- norms -------------------------------------------------------------------


def test_norm_examples():
    assert xi(0, 1).l2_norm() == 1
    assert (3 * xi(0) + 4 * xi(1)).l2_norm() == pytest.approx(5)
    assert Series.zero(A2).l2_norm() == 0
    assert (3 * xi(0) + 4 * xi(1)).l1_norm() == pytest.approx(7)


def test_max_coeff_diff():
    assert max_coeff_diff(xi(0), xi(0)) == 0
    assert max_coeff_diff(xi(0), xi(1)) == 1
    assert max_coeff_diff(2 * xi(0), xi(0)) == 1


# -- interchange format ---------------------------------------------------------


def test_json_worked_example():
    phi = Series(A2, {E: 1.5, w2(0, 1): complex(0.25, -2.0)})
    data = phi.to_json_dict()
    assert data["alphabet"] == 2
    assert data["terms"][0] == {"word": "e", "re": 1.5, "im": 0.0}
    assert Series.from_json_dict(data) == phi


def test_json_roundtrip_is_lossless():
    rng = random.Random(41)
    for _ in range(25):
        table = {}
        for _ in range(rng.randint(0, 5)):
            w = A3.word(rng.randrange(3) for _ in range(rng.randint(0, 3)))
            table[w] = complex(rng.random() * 10 - 5, rng.random() * 10 - 5)
        phi = Series(A3, table)
        text = json.dumps(phi.to_json_dict())
        assert Series.from_json_dict(json.loads(text)) == phi


def test_json_rejects_bad_words():
    with pytest.raises(ValueError):
        Series.from_json_dict({"alphabet": 2, "terms": [{"word": "z5", "re": 1.0, "im": 0.0}]})


def test_json_rejects_non_finite_coefficients():
    for re, im in ((math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)):
        data = {"alphabet": 2, "terms": [{"word": "z0z1", "re": re, "im": im}]}
        with pytest.raises(ValueError):
            Series.from_json_dict(json.loads(json.dumps(data)))


#: A few word texts, so that drawn terms repeat them often.
TEXT_POOL = ["e", "z0", "z1", "z0z1", "z1z0z0"]
INT_COEFF = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@settings(max_examples=100)
@given(
    st.lists(st.tuples(st.sampled_from(TEXT_POOL), INT_COEFF), max_size=12),
    st.lists(
        st.tuples(st.tuples(*[st.sampled_from(TEXT_POOL)] * 2), INT_COEFF), max_size=12
    ),
)
def test_json_reader_with_repeated_texts_sums_term_by_term(series_terms, cochain_terms):
    # the expected tables add one public-constructor table per term
    terms = [{"word": text, "re": re, "im": im} for text, (re, im) in series_terms]
    expected = sum(
        (Series(A2, {A2.parse(text): complex(*c)}) for text, c in series_terms), Series(A2)
    )
    assert Series.from_json_dict({"alphabet": 2, "terms": terms}) == expected
    terms = [{"words": list(texts), "re": re, "im": im} for texts, (re, im) in cochain_terms]
    expected = sum(
        (Cochain(2, A2, {tuple(map(A2.parse, texts)): complex(*c)}) for texts, c in cochain_terms),
        Cochain(2, A2),
    )
    assert Cochain.from_json_dict({"arity": 2, "alphabet": 2, "terms": terms}) == expected


@pytest.mark.parametrize("bad", ["z2", "z0x", "", "ez0"])
def test_json_reader_refuses_a_bad_text_after_many_repeats(tmp_path, capsys, bad):
    repeats = [{"word": "z0z1", "re": 1.0, "im": 0.0}] * 50
    with pytest.raises(ValueError):
        Series.from_json_dict({"alphabet": 2, "terms": [*repeats, {"word": bad, "re": 1.0}]})
    keys = [{"words": ["z0z1", "e"], "re": 1.0, "im": 0.0}] * 50
    cochain = {"arity": 2, "alphabet": 2, "terms": [*keys, {"words": ["z0z1", bad], "re": 1.0}]}
    with pytest.raises(ValueError):
        Cochain.from_json_dict(cochain)
    infile = tmp_path / "cochain.json"
    infile.write_text(json.dumps(cochain))
    code = main(["trivialize-cocycle", "--in", str(infile)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("bad cochain input:")
    assert captured.out == ""


# -- the dict core that series and cochains share ---------------------------------


def test_constructor_rejects_non_finite_coefficients():
    # NaN fails every comparison, so a prune test alone drops it silently
    for value in (math.nan, math.inf, complex(0.0, math.nan), complex(-math.inf, 1.0)):
        with pytest.raises(ValueError):
            Series(A2, {Z0: value})
        with pytest.raises(ValueError):
            Cochain(1, A2, {(Z0,): value})
        term = {"words": ["z0"], "re": value.real, "im": value.imag}
        with pytest.raises(ValueError):
            Cochain.from_json_dict({"arity": 1, "alphabet": 2, "terms": [term]})


#: Differs from 1 by less than PRUNE_EPS, so sums against -1 leave dust.
NEAR_ONE = 1 + PRUNE_EPS / 4
SCALARS = st.sampled_from([0, 2, -1j, PRUNE_EPS / 4, NEAR_ONE])


def coeff_strategy():
    integers = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(lambda ab: complex(*ab))
    return st.one_of(integers, st.sampled_from([NEAR_ONE, -NEAR_ONE]))


def cochain_strategy(arity, max_len=2):
    keys = st.tuples(*[words_strategy(A2, max_len)] * arity)
    return st.dictionaries(keys, coeff_strategy(), max_size=4).map(
        lambda table: Cochain(arity, A2, table)
    )


def assert_canonical(result):
    """Operation results equal themselves passed through the public
    constructor: every key valid, no coefficient at most PRUNE_EPS."""
    if isinstance(result, Cochain):
        rebuilt = Cochain(result.arity, result.alphabet, result.table)
    else:
        rebuilt = Series(result.alphabet, result.table)
    assert rebuilt == result
    assert all(abs(c) > PRUNE_EPS for c in result.table.values())


@settings(max_examples=150)
@given(
    st.dictionaries(words_strategy(A2), coeff_strategy(), max_size=5),
    st.dictionaries(words_strategy(A2), coeff_strategy(), max_size=5),
    SCALARS,
)
def test_series_results_are_canonical(a, b, scalar):
    phi, psi = Series(A2, a), Series(A2, b)
    for result in (
        phi + psi,
        phi - psi,
        -phi,
        phi.scaled(scalar),
        scalar * phi,
        convolve(phi, psi),
        convolve(phi + psi, phi - psi),
    ):
        assert_canonical(result)


@settings(max_examples=100)
@given(
    st.integers(1, 3).flatmap(lambda n: st.tuples(cochain_strategy(n), cochain_strategy(n))),
    SCALARS,
)
def test_cochain_results_are_canonical(pair, scalar):
    phi, psi = pair
    boundary = coboundary(phi)
    for result in (phi + psi, phi - psi, -phi, scalar * phi, boundary, homotopy(boundary)):
        assert_canonical(result)
