import functools
import json
import random
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncdisc import checks, cohomology
from ncdisc.checks import RunConfig, _random_cochain, _random_word
from ncdisc.cli import main
from ncdisc.cohomology import (
    Cochain,
    NonCocycleError,
    coboundary,
    first_cocycle_violation,
    generator_cocycles,
    homotopy,
    homotopy_on_series,
    is_cocycle,
    one_cocycle_dimension,
    trivialize,
)
from ncdisc.series import (
    PRUNE_EPS,
    Series,
    _json_part_lists,
    _sum_and_prune,
    adjoint_shift,
    first_letter_part,
)
from ncdisc.words import Alphabet, Word, enumerate_words

A2 = Alphabet(2)
E = A2.unit()
Z0 = A2.generator(0)
Z1 = A2.generator(1)


def w2(*letters):
    return A2.word(letters)


# -- cochains -------------------------------------------------------------------


def test_cochain_validation():
    with pytest.raises(ValueError):
        Cochain(-1, A2)
    with pytest.raises(ValueError):
        Cochain(2, A2, {(Z0,): 1.0})
    with pytest.raises(ValueError):
        Cochain(1, A2, {(Alphabet(3).generator(0),): 1.0})


def test_scalar_cochain():
    scalar = Cochain.scalar(A2, 2 + 1j)
    assert scalar.arity == 0
    assert scalar.coeff(()) == 2 + 1j
    assert scalar.evaluate() == 2 + 1j


def test_evaluate_multilinear():
    rng = random.Random(3)
    phi = _random_cochain(rng, A2, 2, max_len=2, terms=4)
    def rand_series():
        return Series(
            A2, {_random_word(rng, A2, 2): rng.randint(-3, 3) for _ in range(3)}
        )
    for _ in range(20):
        a, b, c = rand_series(), rand_series(), rand_series()
        scale = complex(rng.randint(-3, 3), rng.randint(-3, 3))
        assert phi.evaluate(a + b, c) == phi.evaluate(a, c) + phi.evaluate(b, c)
        assert phi.evaluate(a, scale * b) == scale * phi.evaluate(a, b)


def test_evaluate_on_basis_reads_table():
    phi = Cochain(2, A2, {(Z0, w2(1, 0)): 4.0})
    assert phi.evaluate(Series.basis(Z0), Series.basis(w2(1, 0))) == 4.0
    assert phi.evaluate(Series.basis(Z1), Series.basis(w2(1, 0))) == 0.0


# -- coboundary --------------------------------------------------------------------


def test_degree_zero_coboundary_vanishes():
    rng = random.Random(5)
    for _ in range(10):
        scalar = Cochain.scalar(A2, complex(rng.randint(-5, 5), rng.randint(-5, 5)))
        assert coboundary(scalar).is_zero()


def test_coboundary_worked_example():
    # eta supported on z0z1 alone: the only surviving term sits at (z0, z1)
    eta = Cochain(1, A2, {(w2(0, 1),): 1.0})
    boundary = coboundary(eta)
    assert boundary.table == {(Z0, Z1): -1 + 0j}
    assert boundary.coeff((E, w2(0, 1))) == 0
    assert boundary.coeff((w2(0, 1), E)) == 0


def test_coboundary_formula_pointwise():
    # independent route: evaluate the alternating-sum formula directly
    rng = random.Random(7)
    for _ in range(20):
        phi = _random_cochain(rng, A2, 2, max_len=2, terms=4)
        boundary = coboundary(phi)
        probes = list(boundary.table) + [
            tuple(_random_word(rng, A2, 2) for _ in range(3)) for _ in range(5)
        ]
        for w1, v2, v3 in probes:
            expected = (
                (1 if w1 == E else 0) * phi.coeff((v2, v3))
                - phi.coeff((w1 * v2, v3))
                + phi.coeff((w1, v2 * v3))
                - phi.coeff((w1, v2)) * (1 if v3 == E else 0)
            )
            assert boundary.coeff((w1, v2, v3)) == expected


def test_coboundary_squares_to_zero():
    rng = random.Random(11)
    for arity in (0, 1, 2, 3):
        for _ in range(10):
            phi = _random_cochain(rng, A2, arity, max_len=2, terms=4)
            assert coboundary(coboundary(phi)).is_zero()


#: Dust unit: every coefficient below is a multiple of 2**-47 of magnitude
#: under 32, so all sums are exact in any order, and one or two units
#: (7e-15, 1.4e-14) sit on either side of PRUNE_EPS.
DUST = 2.0**-47
#: Total key length bound; keeps the oracle's window to a few thousand tuples.
MAX_TOTAL = 4


def _part(base):
    return st.builds(lambda b, k: b + k * DUST, base, st.integers(-2, 2))


def _table(draw, alphabet, arity, base):
    word = st.lists(st.integers(0, alphabet.size - 1), max_size=3).map(alphabet.word)
    key = st.tuples(*[word] * arity).filter(lambda k: sum(map(len, k)) <= MAX_TOTAL)
    coeff = st.builds(complex, _part(base), _part(base))
    return draw(st.dictionaries(key, coeff, max_size=6))


@st.composite
def dusty_cochains(draw):
    """Cochains of arity 0-3 over m = 1-3 with words of length <= 3.  Part of
    each is a coboundary moved by a few dust units per term, so that dd = 0
    leaves exact zeros and dust on both sides of PRUNE_EPS."""
    alphabet = Alphabet(draw(st.integers(1, 3)))
    arity = draw(st.integers(0, 3))
    table = _table(draw, alphabet, arity, st.integers(-2, 2))
    if arity >= 1:
        psi = Cochain(arity - 1, alphabet, _table(draw, alphabet, arity - 1, st.integers(-1, 1)))
        for key, c in coboundary(psi).table.items():
            table[key] = table.get(key, 0j) + c + draw(st.sampled_from([1, -1, 0, 2])) * DUST
    return Cochain(arity, alphabet, table)


def _window(words_by_len, slots, budget):
    """Every tuple of ``slots`` words of total length <= budget."""
    if slots == 0:
        yield ()
        return
    for length in range(budget + 1):
        for w in words_by_len[length]:
            for rest in _window(words_by_len, slots - 1, budget - length):
                yield (w, *rest)


def _coboundary_at(phi, ws):
    """The defining formula at one tuple (w0, ..., wn):
    e(w0) phi(w1, ...) + sum_i (-1)^(i+1) phi(..., wi wi+1, ...)
    + (-1)^(n+1) phi(..., w(n-1)) e(wn)."""
    n = phi.arity
    value = 0j
    if ws[0].is_unit():
        value += phi.coeff(ws[1:])
    for i in range(n):
        value += (-1) ** (i + 1) * phi.coeff((*ws[:i], ws[i] * ws[i + 1], *ws[i + 2 :]))
    if ws[n].is_unit():
        value += (-1) ** (n + 1) * phi.coeff(ws[:n])
    return value


@settings(max_examples=100, deadline=None, derandomize=True)
@given(dusty_cochains())
def test_coboundary_matches_pointwise_formula_on_the_whole_window(phi):
    boundary = coboundary(phi)
    assert boundary.arity == phi.arity + 1
    # the public constructor finds nothing to check, sum or prune
    assert Cochain(boundary.arity, phi.alphabet, boundary.table) == boundary
    # every output tuple has the total length of an input key
    budget = max((sum(map(len, key)) for key in phi.table), default=0)
    words = enumerate_words(phi.alphabet, budget)
    words_by_len = [[w for w in words if len(w) == n] for n in range(budget + 1)]
    expected = {}
    for ws in _window(words_by_len, phi.arity + 1, budget):
        value = _coboundary_at(phi, ws)
        if not abs(value) <= PRUNE_EPS:
            expected[ws] = value
    assert boundary.table == expected



def _letter_tuple_coboundary(phi):
    """Reference: the formula's terms in generation order under letter-tuple
    keys, summed and pruned by the table core."""
    n = phi.arity
    if n == 0:
        return {}
    last_sign = 1.0 if (n + 1) % 2 == 0 else -1.0

    def terms():
        for key, c in phi.table.items():
            spelled = tuple(w.letters for w in key)
            yield ((), *spelled), c
            for i, s in enumerate(spelled):
                sign_c = (-1.0 if i % 2 == 0 else 1.0) * c
                before, after = spelled[:i], spelled[i + 1 :]
                for cut_at in range(len(s) + 1):
                    yield (*before, s[:cut_at], s[cut_at:], *after), sign_c
            yield (*spelled, ()), last_sign * c

    summed = _sum_and_prune(terms())
    return {tuple(map(phi.alphabet.word, key)): c for key, c in summed.items()}


def _bits(table_items):
    """Terms with each coefficient as the exact bits of its two parts."""
    return [(key, c.real.hex(), c.imag.hex()) for key, c in table_items]


def _word_level_difference(table, b):
    """Reference: ``table - b`` on Word-keyed terms, summed and pruned by the
    dict core of ``series``."""
    return _sum_and_prune(chain(table.items(), ((key, -c) for key, c in b.table.items())))


def _badly_scaled(rng):
    return complex(
        rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8),
        rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8),
    )


def _seeded_cochain(rng, alphabet, arity):
    """Random keys, the all-unit key, a unit in every slot, and (from
    arity 1) a coboundary moved by dust, so that terms cancel exactly and
    leave dust on both sides of PRUNE_EPS."""
    e = alphabet.unit()
    table = {}
    keys = [tuple(_random_word(rng, alphabet, 3) for _ in range(arity)) for _ in range(8)]
    keys.append((e,) * arity)
    for slot in range(arity):
        key = [_random_word(rng, alphabet, 2) for _ in range(arity)]
        key[slot] = e
        keys.append(tuple(key))
    for key in keys:
        table[key] = table.get(key, 0j) + _badly_scaled(rng)
    if arity >= 1:
        lower = _seeded_cochain(rng, alphabet, arity - 1) if arity > 1 else Cochain(
            0, alphabet, {(): _badly_scaled(rng)}
        )
        for key, c in coboundary(lower).table.items():
            table[key] = table.get(key, 0j) + c + rng.choice([0, 0, 1, -1]) * 1e-14
    return Cochain(arity, alphabet, table)


def test_coboundary_kernel_matches_letter_tuple_reference_bit_for_bit():
    rng = random.Random(23)
    for m in (1, 2, 3):
        alphabet = Alphabet(m)
        for arity in range(6):
            # the empty table, and a nonzero scalar: cocycles with no shortcut
            # in the kernel, whose coboundary is the zero table
            fixed = [Cochain(arity, alphabet)]
            if arity == 0:
                fixed.append(Cochain.scalar(alphabet, 3 - 4j))
            for phi in fixed:
                assert coboundary(phi).table == {}
                assert is_cocycle(phi) and first_cocycle_violation(phi) is None
            for phi in fixed + [_seeded_cochain(rng, alphabet, arity) for _ in range(4)]:
                boundary = coboundary(phi)
                assert boundary.arity == arity + 1
                expected = _letter_tuple_coboundary(phi)
                assert _bits(boundary.table.items()) == _bits(expected.items())


def test_coboundary_kernel_stays_exact_past_int64_codes():
    # arity 12 and |S| = 63: the mixed-radix code of a string and its cuts,
    # radix 64, would need 6 bits per cut beyond the string id, 72 in all;
    # codes that wrapped modulo 2**64 would merge the two strings' terms
    alphabet = Alphabet(3)
    lengths = [4, 0, 7, 5, 6, 3, 0, 9, 8, 6, 10, 5]
    assert sum(lengths) == 63
    rng = random.Random(29)
    table = {}
    for letter in (0, 1):
        table[tuple(alphabet.word([letter] * n) for n in lengths)] = _badly_scaled(rng)
    for _ in range(6):
        key = tuple(_random_word(rng, alphabet, 6) for _ in range(12))
        table[key] = _badly_scaled(rng)
    phi = Cochain(12, alphabet, table)
    strings = {sum((w.letters for w in key), ()) for key in phi.table}
    radix = max(map(len, strings)) + 1
    assert len(strings) * radix**12 > 2**63
    boundary = coboundary(phi)
    expected = _letter_tuple_coboundary(phi)
    assert _bits(boundary.table.items()) == _bits(expected.items())


# -- cocycles -------------------------------------------------------------------------


def test_is_cocycle_examples():
    rng = random.Random(13)
    eta = _random_cochain(rng, A2, 1, max_len=2, terms=4)
    assert is_cocycle(coboundary(eta))
    generator_supported = Cochain(1, A2, {(Z0,): 2.0, (Z1,): -1.0})
    assert is_cocycle(generator_supported)
    assert not is_cocycle(Cochain(1, A2, {(w2(0, 1),): 1.0}))


def test_first_cocycle_violation():
    assert first_cocycle_violation(Cochain(1, A2, {(Z0,): 1.0})) is None
    witness = first_cocycle_violation(Cochain(1, A2, {(w2(0, 1),): 1.0}))
    assert witness == (Z0, Z1)


def _word_order(key):
    """A key's place in the cochain order, from its words: ``Word.sort_key``
    per slot."""
    return tuple(w.sort_key() for w in key)


def test_witness_is_the_least_coboundary_row_and_only_its_words_are_built(monkeypatch):
    rng = random.Random(31)
    for m in (1, 2, 3):
        for arity in (0, 1, 2, 3):
            phi = _seeded_cochain(rng, Alphabet(m), arity)
            boundary = coboundary(phi)
            if arity == 0:
                assert first_cocycle_violation(phi) is None and boundary.is_zero()
                continue
            assert len(boundary) > 0
            expected = min(boundary.table, key=_word_order)
            built = _count_words(monkeypatch)
            witness = first_cocycle_violation(phi)
            words_built = built[0]
            monkeypatch.undo()
            assert witness == expected
            # one row of arity + 1 slots; a letter tuple met twice is built once
            assert 0 < words_built <= arity + 1
            assert words_built == len({w.letters for w in witness})


# -- homotopy -------------------------------------------------------------------------


def test_homotopy_worked_example():
    eta = Cochain(1, A2, {(w2(0, 1),): 1.0})
    cocycle = coboundary(eta)
    psi = homotopy(cocycle)
    assert psi.table == {(w2(0, 1),): 1 + 0j}
    assert psi.coeff((E,)) == 0
    assert coboundary(psi) == cocycle


def test_homotopy_zero():
    zero = Cochain(2, A2, {})
    assert homotopy(zero).is_zero()


def test_homotopy_rejects_non_cocycles():
    # weight on a single generator pair is closed (all splittings cancel),
    # so that one is accepted; a longer first word leaves a residue
    assert is_cocycle(Cochain(2, A2, {(Z0, Z1): 1.0}))
    with pytest.raises(NonCocycleError) as info:
        homotopy(Cochain(2, A2, {(w2(0, 1), Z1): 1.0}))
    assert info.value.witness == (Z0, Z1, Z1)
    with pytest.raises(ValueError):
        homotopy(Cochain(1, A2, {(Z0,): 1.0}))


def test_homotopy_trivializes_random_cocycles():
    rng = random.Random(17)
    for arity in (2, 3, 4):
        for _ in range(15):
            eta = _random_cochain(rng, A2, arity - 1, max_len=3, terms=4)
            cocycle = coboundary(eta)
            psi = homotopy(cocycle)
            assert coboundary(psi) == cocycle
            assert (coboundary(psi) - cocycle).is_zero()


def _word_level_homotopy(phi):
    """Reference: the homotopy's terms built as ``Word`` products and summed
    by the table core, after the same cocycle check."""
    witness = first_cocycle_violation(phi)
    if witness is not None:
        raise NonCocycleError("not a cocycle", witness=witness)
    e = phi.alphabet.unit()

    def terms():
        for (s1, s2, *tail), c in phi.table.items():
            if len(s1) == 1:
                yield (s1 * s2, *tail), -c
            elif s1 == e and s2 == e:
                yield (e, *tail), c

    return Cochain._from_valid((phi.arity - 1, phi.alphabet), terms())


def _seeded_cocycle(rng, alphabet, arity):
    """The coboundary of a seeded cochain (unit words in slots, weights from
    1e-8 to 1e8), moved by dust on both sides of PRUNE_EPS at keys the
    homotopy reads: some stay cocycles, the rest are refused."""
    table = dict(coboundary(_seeded_cochain(rng, alphabet, arity - 1)).table)
    e = alphabet.unit()
    for _ in range(3):
        tail = tuple(_random_word(rng, alphabet, 2) for _ in range(arity - 2))
        first = alphabet.generator(rng.randrange(alphabet.size))
        for key in ((first, _random_word(rng, alphabet, 2), *tail), (e, e, *tail)):
            table[key] = table.get(key, 0j) + rng.choice([0.6, 1.2]) * PRUNE_EPS
    return Cochain(arity, alphabet, table)


def test_homotopy_and_residual_match_the_word_level_reference_bit_for_bit():
    rng = random.Random(31)
    outcomes = []
    for m in (1, 2, 3):
        alphabet = Alphabet(m)
        for arity in (2, 3, 4, 5):
            for _ in range(4):
                phi = _seeded_cocycle(rng, alphabet, arity)
                try:
                    expected = _word_level_homotopy(phi)
                except NonCocycleError as err:
                    for solver in (homotopy, trivialize):
                        with pytest.raises(NonCocycleError) as info:
                            solver(phi)
                        assert info.value.witness == err.witness
                    outcomes.append("refused")
                    continue
                psi = homotopy(phi)
                assert psi.arity == arity - 1
                assert _bits(psi.table.items()) == _bits(expected.table.items())
                psi, residual = trivialize(phi)
                assert _bits(psi.table.items()) == _bits(expected.table.items())
                reference = _word_level_difference(coboundary(expected).table, phi)
                assert residual.arity == arity
                assert _bits(residual.table.items()) == _bits(reference.items())
                outcomes.append("trivialized")
    assert set(outcomes) == {"refused", "trivialized"}


def test_residual_of_a_perturbed_homotopy_matches_the_reference():
    # coboundary(psi) - phi, on psi's codes moved by a scale, by dust on both
    # sides of PRUNE_EPS, by a dropped key, by a key shrunk to dust and by a
    # key at new cuts; psi's codes share phi's string ids
    rng = random.Random(37)
    recut = 0
    for m in (1, 2, 3):
        alphabet = Alphabet(m)
        for arity in (2, 3, 4):
            phi = coboundary(_random_cochain(rng, alphabet, arity - 1, max_len=3, terms=5))
            psi = homotopy(phi)._codes
            rows = len(psi.ids)
            assert rows
            k = rng.randrange(rows)
            moved = psi._replace(re=psi.re.copy(), im=psi.im.copy())
            moved.re[k] *= 1.5
            moved.im[rng.randrange(rows)] += rng.choice([0.6, 1.2]) * PRUNE_EPS
            kept = np.delete(np.arange(rows), k)
            dropped = psi.rows(kept, psi.re[kept], psi.im[kept])
            # the last row scaled and the first shrunk to dust: the first row's
            # coboundary terms are pruned, and phi's keys they alone reached
            # come back negated after the keys the coboundary keeps
            shrunk = psi._replace(re=psi.re.copy(), im=psi.im.copy())
            shrunk.re[-1] *= 1.5
            shrunk.re[0] = 0.6 * PRUNE_EPS
            shrunk.im[0] = 0.0
            wrongs = [moved, dropped, shrunk]
            # a key at new cuts: a string of psi cut all at its end or all at
            # its start, where psi has no such key
            taken = set(zip(psi.ids.tolist(), map(tuple, psi.bounds.tolist())))
            fresh = [
                (i, cuts)
                for i in psi.ids.tolist()
                for n in [len(psi.spelled[i])]
                for cuts in ((0, *[n] * (arity - 1)), (*[0] * (arity - 1), n))
                if (i, cuts) not in taken
            ]
            if fresh:
                i, cuts = fresh[0]
                recut += 1
                wrongs.append(
                    psi._replace(
                        ids=np.append(psi.ids, i),
                        bounds=np.vstack([psi.bounds, cuts]),
                        re=np.append(psi.re, 2.0),
                        im=np.append(psi.im, 0.0),
                    )
                )
            for wrong in wrongs:
                wrong = Cochain._from_codes(wrong)
                residual = coboundary(wrong) - phi
                reference = _word_level_difference(_letter_tuple_coboundary(wrong), phi)
                assert residual.table
                assert len(residual) == len(reference)
                assert _bits(residual.table.items()) == _bits(reference.items())
    assert recut >= 4


def test_residual_kernel_stays_exact_past_int64_codes():
    # phi = coboundary(eta) has arity 12 and |S| = 63, so the residual codes
    # of psi's coboundary and of phi, radix 64 with 11 interior cuts, need 66
    # bits beyond the string id: codes that wrapped modulo 2**64 would merge
    # the two one-letter strings' terms
    alphabet = Alphabet(3)
    lengths = [4, 0, 7, 5, 6, 3, 0, 9, 8, 6, 15]
    assert sum(lengths) == 63 and 64**11 > 2**63
    rng = random.Random(41)
    table = {}
    for letter, c in ((0, 2 - 1j), (1, -3.0)):
        table[tuple(alphabet.word([letter] * n) for n in lengths)] = c
    for _ in range(3):
        table[tuple(_random_word(rng, alphabet, 5) for _ in range(11))] = _badly_scaled(rng)
    phi = coboundary(Cochain(11, alphabet, table))
    expected = _word_level_homotopy(phi)
    psi, residual = trivialize(phi)
    assert _bits(psi.table.items()) == _bits(expected.table.items())
    reference = _word_level_difference(coboundary(expected).table, phi)
    assert _bits(residual.table.items()) == _bits(reference.items())


def test_homotopy_series_route_agrees_on_basis_tuples():
    rng = random.Random(19)
    for arity in (2, 3):
        for _ in range(10):
            eta = _random_cochain(rng, A2, arity - 1, max_len=3, terms=4)
            cocycle = coboundary(eta)
            psi = homotopy(cocycle)
            probes = set(psi.table)
            for _ in range(5):
                probes.add(
                    tuple(_random_word(rng, A2, 3) for _ in range(arity - 1))
                )
            for key in probes:
                direct = homotopy_on_series(
                    cocycle, [Series.basis(w) for w in key]
                )
                assert direct == psi.coeff(key)


def test_homotopy_series_route_unit_first_argument():
    rng = random.Random(23)
    eta = _random_cochain(rng, A2, 1, max_len=2, terms=4)
    cocycle = coboundary(eta)
    unit = Series.unit(A2)
    value = homotopy_on_series(cocycle, [unit])
    assert value == cocycle.coeff((E, E))


def test_homotopy_series_route_norm_proxy_bound():
    # |psi(args)| <= (2m + 1) * (sum of |table| weights) * prod of l2 norms
    rng = random.Random(29)
    for arity in (2, 3):
        for _ in range(20):
            eta = _random_cochain(rng, A2, arity - 1, max_len=2, terms=4)
            cocycle = coboundary(eta)
            table_weight = sum(abs(c) for c in cocycle.table.values())
            args = [
                Series(
                    A2,
                    {_random_word(rng, A2, 2): rng.randint(-3, 3) for _ in range(3)},
                )
                for _ in range(arity - 1)
            ]
            value = homotopy_on_series(cocycle, args)
            bound = (2 * 2 + 1) * table_weight
            for series in args:
                bound *= series.l2_norm()
            assert abs(value) <= bound + 1e-9


def _homotopy_on_series_over_every_letter(phi, args):
    """Reference: the series route with a term for every letter of the
    alphabet, in ascending order."""
    alphabet = phi.alphabet
    first, rest = args[0], args[1:]
    total = 0j
    for a in alphabet.letters():
        gen = alphabet.generator(a)
        stripped = adjoint_shift(gen, first_letter_part(first, a))
        total -= phi.evaluate(Series.basis(gen), stripped, *rest)
    unit = Series.unit(alphabet)
    total += first.coeff(alphabet.unit()) * phi.evaluate(unit, unit, *rest)
    return total


@pytest.mark.parametrize("m", [1, 2, 3, 44])
def test_homotopy_series_route_matches_the_every_letter_sum_bit_for_bit(m):
    # a letter that begins no word of the first argument adds an exact zero
    alphabet = Alphabet(m)
    rng = random.Random(37 + m)
    nonzero = 0
    for arity in (2, 3):
        for _ in range(5):
            phi = _seeded_cochain(rng, alphabet, arity)
            keys = list(phi.table)
            firsts = [key[0] * key[1] for key in keys] + [_random_word(rng, alphabet, 3)]
            slots = [firsts] + [[key[i] for key in keys] for i in range(2, arity)]
            args = [Series(alphabet, {w: _badly_scaled(rng) for w in words}) for words in slots]
            value = homotopy_on_series(phi, args)
            reference = _homotopy_on_series_over_every_letter(phi, args)
            assert (value.real.hex(), value.imag.hex()) == (
                reference.real.hex(),
                reference.imag.hex(),
            )
            nonzero += value != 0
    assert nonzero


def test_homotopy_roundtrip_checks_each_cocycle_once(monkeypatch):
    # the homotopy refuses a non-cocycle itself; the check runs no second test
    calls = []
    real = cohomology.first_cocycle_violation

    def counted(phi):
        calls.append(phi)
        return real(phi)

    monkeypatch.setattr(cohomology, "first_cocycle_violation", counted)
    check = checks.CHECKS["cohomology.homotopy_roundtrip"]
    params = check.params(RunConfig(alphabet=3))
    assert check.run(params) is None
    assert len(calls) == 2 * params["trials"]  # arities 2 and 3


@pytest.mark.parametrize("m", [44, 2000])
def test_verify_cohomology_evaluates_each_probe_at_most_twice_at_any_alphabet(
    monkeypatch, capsys, m
):
    # one evaluation at the letter that begins the probe's first word, if
    # any, and one at the unit; none at the other letters
    evaluations = []
    real_evaluate = Cochain.evaluate

    def evaluate(self, *args):
        evaluations.append(args)
        return real_evaluate(self, *args)

    per_probe = []
    real_route = checks.homotopy_on_series

    def route(phi, args):
        before = len(evaluations)
        value = real_route(phi, args)
        per_probe.append(len(evaluations) - before)
        return value

    monkeypatch.setattr(Cochain, "evaluate", evaluate)
    monkeypatch.setattr(checks, "homotopy_on_series", route)
    assert main(["verify-cohomology", "--alphabet", str(m)]) == 0
    capsys.readouterr()
    assert per_probe and set(per_probe) <= {1, 2}
    assert sum(per_probe) == len(evaluations)


# -- first cohomology at desk scale -----------------------------------------------------


def test_generator_cocycles():
    cocycles = generator_cocycles(A2)
    assert len(cocycles) == 2
    for delta in cocycles:
        assert is_cocycle(delta)
        assert not delta.is_zero()
    supports = [set(delta.table) for delta in cocycles]
    assert supports[0].isdisjoint(supports[1])


def test_one_cocycle_dimension_matches_generator_count():
    for m in (1, 2, 3):
        for max_len in range(5):
            dimension = one_cocycle_dimension(Alphabet(m), max_len)
            assert type(dimension) is int and dimension == (m if max_len else 0)
    with pytest.raises(ValueError, match="basis words"):
        one_cocycle_dimension(A2, 30)


def test_one_cocycles_vanish_off_generators():
    # the coboundary of the basis cochain at w spells only w, and is empty
    # exactly when |w| = 1, so a one-cochain on words of length <= 3 is a
    # cocycle only when it vanishes off the generators
    for m in (1, 2, 3):
        alphabet = Alphabet(m)
        words = enumerate_words(alphabet, 3)
        for w in words:
            delta = coboundary(Cochain(1, alphabet, {(w,): 1.0}))
            assert delta.is_zero() == (len(w) == 1)
            assert all(u * v == w for u, v in delta.table)
        generators = {(w,): 1.0 + i for i, w in enumerate(words) if len(w) == 1}
        assert len(generators) == m
        assert is_cocycle(Cochain(1, alphabet, generators))
        for w in words:
            if len(w) != 1:
                assert not is_cocycle(Cochain(1, alphabet, {**generators, (w,): 1e-3}))


def test_span_membership_of_short_supported_cocycles():
    # a one-cochain on words of length <= 3 is a cocycle iff it is a
    # combination of the generator cocycles (exhaustive over a small grid)
    deltas = generator_cocycles(A2)
    words = enumerate_words(A2, 2)
    for w in words:
        single = Cochain(1, A2, {(w,): 1.0})
        in_span = len(w) == 1
        assert is_cocycle(single) == in_span
    combo = 2 * deltas[0] - 3j * deltas[1]
    assert is_cocycle(combo)


# -- interchange format --------------------------------------------------------------------


def test_json_roundtrip():
    phi = Cochain(2, A2, {(Z0, w2(1, 0)): complex(1.25, -0.5), (E, E): 2.0})
    data = json.loads(json.dumps(phi.to_json_dict()))
    assert Cochain.from_json_dict(data) == phi
    assert data["terms"][0]["words"] == ["e", "e"]


def test_json_true_is_not_an_arity_or_an_alphabet():
    # through trivialize-cocycle, arity 1 is refused anyway
    for data in (
        {"arity": True, "alphabet": 2, "terms": [{"words": ["z0"], "re": 1.0}]},
        {"arity": 1, "alphabet": True, "terms": [{"words": ["z0"], "re": 1.0}]},
    ):
        with pytest.raises(ValueError):
            Cochain.from_json_dict(data)


def test_json_scalar_cochain():
    scalar = Cochain.scalar(A2, 3.0)
    data = scalar.to_json_dict()
    assert data["arity"] == 0
    assert Cochain.from_json_dict(data) == scalar


def _word_level_reader(data):
    """Reference: the Word-level cochain reader -- each distinct text parsed
    once through ``Alphabet.parse``, each term's parts checked on their own,
    repeated keys summed and pruned by the dict core, then each key and
    coefficient checked by the constructor."""
    alphabet = Alphabet(data["alphabet"])
    parse = functools.cache(alphabet.parse)

    def coefficient(term):
        (re,), (im,) = _json_part_lists([term])
        return complex(re, im)

    terms = (
        (tuple(map(parse, term["words"])), coefficient(term)) for term in data.get("terms", ())
    )
    return Cochain(data["arity"], alphabet, _sum_and_prune(terms))


#: Coefficient parts: JSON integers, exact multiples of the dust unit, dust
#: on both sides of PRUNE_EPS, signed zeros, and floats whose sums round, so
#: that the order of summation shows in the bits.
JSON_PARTS = st.one_of(
    st.integers(-3, 3),
    _part(st.integers(-2, 2)),
    st.sampled_from([-0.6, 0.6, -1.2, 1.2]).map(lambda k: k * PRUNE_EPS),
    st.sampled_from([-0.0, 0.0, 0.1, 0.2, -0.3]),
    st.floats(-1e3, 1e3, allow_nan=False),
)


@st.composite
def cochain_json(draw):
    """Cochain JSON of arity 0-3 over m = 1, 2, 3 or 11, with unit slots and
    keys drawn from a small pool, so that keys repeat; at m = 11 the letters
    include z10 next to z1 and z0.  A term's ``im`` is sometimes left out."""
    m = draw(st.sampled_from([1, 2, 3, 11]))
    arity = draw(st.integers(0, 3))
    letter = st.one_of(st.sampled_from(sorted({0, 1 % m, m - 1})), st.integers(0, m - 1))
    word = st.lists(letter, max_size=3).map(lambda ls: Alphabet(m).word(ls))
    pool = draw(st.lists(st.tuples(*[word] * arity), min_size=1, max_size=5))
    terms = []
    for key in draw(st.lists(st.sampled_from(pool), max_size=10)):
        term = {"words": [str(w) for w in key], "re": draw(JSON_PARTS)}
        if draw(st.booleans()):
            term["im"] = draw(JSON_PARTS)
        terms.append(term)
    return json.loads(json.dumps({"arity": arity, "alphabet": m, "terms": terms}))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cochain_json())
def test_codes_reader_matches_the_word_level_reader_bit_for_bit(data):
    expected = _word_level_reader(data)
    phi = Cochain.from_json_dict(data)
    assert (phi.arity, phi.alphabet) == (expected.arity, expected.alphabet)
    # the same keys, in first-occurrence order, with the same bits
    assert _bits(phi.table.items()) == _bits(expected.table.items())
    # the codes as read solve as the codes of the table do
    if phi.arity >= 2:
        try:
            psi, residual = trivialize(expected)
        except NonCocycleError as err:
            with pytest.raises(NonCocycleError) as info:
                trivialize(phi)
            assert info.value.witness == err.witness
            return
        got_psi, got_residual = trivialize(phi)
        assert _bits(got_psi.table.items()) == _bits(psi.table.items())
        assert _bits(got_residual.table.items()) == _bits(residual.table.items())


def _word_level_json(phi):
    """Reference: the cochain JSON as the table wrote it, word by word, in
    ``items()`` order."""
    terms = [
        {"words": [str(w) for w in key], "re": c.real, "im": c.imag} for key, c in phi.items()
    ]
    return {"arity": phi.arity, "alphabet": phi.alphabet.size, "terms": terms}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cochain_json())
def test_cochain_json_written_from_codes_matches_the_word_level_writer(data):
    # json.dumps of a float round-trips its bits and keeps the sign of a zero
    expected = _word_level_reader(data)
    written = Cochain.from_json_dict(data).to_json_dict()
    assert json.dumps(written) == json.dumps(_word_level_json(expected))
    assert json.dumps(expected.to_json_dict()) == json.dumps(_word_level_json(expected))
    # psi of a cocycle, written from its codes
    cocycle = coboundary(expected)
    if cocycle.arity >= 2:
        psi, _ = trivialize(cocycle)
        written = psi.to_json_dict()
        assert json.dumps(written) == json.dumps(_word_level_json(homotopy(cocycle)))


@st.composite
def cut_cochains(draw):
    """Cochains of arity 0-3 over m = 1, 2 or 11 whose keys cut a few shared
    letter strings at drawn positions, so that strings repeat across keys
    and slots are often the unit."""
    m = draw(st.sampled_from([1, 2, 11]))
    alphabet = Alphabet(m)
    arity = draw(st.integers(0, 3))
    letters = st.lists(st.integers(0, m - 1), max_size=4)
    strings = draw(st.lists(letters, min_size=1, max_size=3)) if arity else [[]]
    table = {}
    for _ in range(draw(st.integers(0, 8))):
        s = draw(st.sampled_from(strings))
        slots = max(arity - 1, 0)
        cuts = draw(st.lists(st.integers(0, len(s)), min_size=slots, max_size=slots))
        bounds = [0, *sorted(cuts), len(s)] if arity else [0]
        key = tuple(alphabet.word(s[a:b]) for a, b in zip(bounds, bounds[1:]))
        # exact multiples of the dust unit, so that the coboundary is a cocycle
        table[key] = complex(draw(_part(st.integers(-2, 2))), draw(_part(st.integers(-2, 2))))
    return Cochain(arity, alphabet, table)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cut_cochains())
def test_json_writer_and_items_follow_the_word_order_and_word_texts(phi):
    # the cochain, its coboundary and a sum on shared strings, and the homotopy
    # of the coboundary, whose strings include ones no row uses
    cochains = [phi, coboundary(phi), phi - phi.scaled(0.5)]
    if phi.arity >= 1:
        cochains.append(homotopy(coboundary(phi)))
    for cochain in cochains:
        assert cochain.items() == sorted(cochain.table.items(), key=lambda kv: _word_order(kv[0]))
        assert json.dumps(cochain.to_json_dict()) == json.dumps(_word_level_json(cochain))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cochain_json())
def test_public_constructor_prunes_as_the_grouping_sum_bit_for_bit(data):
    # a mapping's keys are distinct: the constructor prunes without grouping,
    # and its codes keep the bits of the grouping sum, -0.0 parts and dust too
    alphabet = Alphabet(data["alphabet"])
    table = {
        tuple(map(alphabet.parse, term["words"])): complex(term["re"], term.get("im", 0))
        for term in data["terms"]
    }
    shape = (data["arity"], alphabet)
    pruned = Cochain(*shape, table)._codes
    summed = cohomology._summed(cohomology._encoded(*shape, table.items()))
    assert pruned.spelled == summed.spelled
    for name in ("ids", "bounds", "re", "im"):
        got, expected = getattr(pruned, name), getattr(summed, name)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
    summed_table = Cochain._from_valid(shape, table.items()).items()
    assert _bits(Cochain(*shape, table).items()) == _bits(summed_table)


def test_public_constructor_writes_signed_zero_parts_as_positive_zeros():
    c = Cochain(1, A2, {(A2.generator(0),): complex(-0.0, 1.0), (A2.unit(),): complex(2.0, -0.0)})
    assert _bits(c.items()) == [
        ((A2.unit(),), "0x1.0000000000000p+1", "0x0.0p+0"),
        ((A2.generator(0),), "0x0.0p+0", "0x1.0000000000000p+0"),
    ]
    # dust, up to PRUNE_EPS itself, is pruned as the sum prunes it
    for dust in (complex(0.6 * PRUNE_EPS, -0.0), PRUNE_EPS, complex(0.0, -PRUNE_EPS)):
        assert Cochain(1, A2, {(A2.unit(),): dust}).is_zero()
        assert Cochain._from_valid((1, A2), [((A2.unit(),), dust)]).is_zero()


#: One bad term for each class of input the cochain reader refuses, added to
#: a valid arity-2 cochain over m = 2.
BAD_COCHAIN_TERMS = {
    "key_not_a_list": '{"words": "z0z1", "re": 1.0}',
    "key_an_object": '{"words": {"0": "z0", "1": "z1"}, "re": 1.0}',
    "key_too_short": '{"words": ["z0"], "re": 1.0}',
    "key_too_long": '{"words": ["z0", "z1", "e"], "re": 1.0}',
    "keys_too_short_and_too_long": '{"words": ["z0"], "re": 1.0}, {"words": ["z0", "z1", "e"]}',
    "text_an_integer": '{"words": ["z0", 5], "re": 1.0}',
    "text_a_list": '{"words": ["z0", ["z0"]], "re": 1.0}',
    "text_null": '{"words": [null, "z1"], "re": 1.0}',
    "text_empty": '{"words": ["z0", ""], "re": 1.0}',
    "text_unit_then_letter": '{"words": ["ez0", "z1"], "re": 1.0}',
    "text_leading_zero": '{"words": ["z01", "z1"], "re": 1.0}',
    "text_outside_alphabet": '{"words": ["z0", "z2"], "re": 1.0}',
    "coefficient_a_string": '{"words": ["z0", "z1"], "re": "1.0"}',
    "coefficient_a_boolean": '{"words": ["z0", "z1"], "re": 1.0, "im": true}',
    "coefficient_nan": '{"words": ["z0", "z1"], "re": NaN}',
    "coefficient_past_float_range": '{"words": ["z0", "z1"], "re": 1%s}' % ("0" * 400),
}


@pytest.mark.parametrize("term", list(BAD_COCHAIN_TERMS.values()), ids=list(BAD_COCHAIN_TERMS))
def test_trivialize_cocycle_refuses_each_bad_input_class(tmp_path, capsys, term):
    infile = tmp_path / "cochain.json"
    good = '{"words": ["e", "z1"], "re": 1.0}, ' * 3
    infile.write_text('{"arity": 2, "alphabet": 2, "terms": [%s%s]}' % (good, term))
    with pytest.raises(ValueError):
        Cochain.from_json_dict(json.loads(infile.read_text()))
    code = main(["trivialize-cocycle", "--in", str(infile)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("bad cochain input:")
    assert captured.out == ""


# -- one representation: the public functions are the kernels ---------------------------


#: The golden solver inputs and outputs of tests/data/solvers.
SOLVERS = Path(__file__).parent / "data" / "solvers"


@pytest.mark.parametrize(
    "case, code",
    [("cocycle", 0), ("repeated_keys", 0), ("float_cocycle_m11_s5", 0), ("non_cocycle", 1)],
)
def test_trivialize_cocycle_runs_the_public_kernels(monkeypatch, capsys, case, code):
    # the module globals are looked up when trivialize runs, so the counting
    # wrappers see every call on the command's path
    calls = {"homotopy": 0, "first_cocycle_violation": 0}
    for name in calls:
        original = getattr(cohomology, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(cohomology, name, counted)
    assert main(["trivialize-cocycle", "--in", str(SOLVERS / f"{case}.json")]) == code
    assert capsys.readouterr().out == (SOLVERS / f"{case}.out").read_text()
    assert calls == {"homotopy": 1, "first_cocycle_violation": 1}


def _count_words(monkeypatch):
    """A counter of the words built through ``Word._of`` and ``Word.__init__``."""
    built = [0]
    of, init = Word._of.__func__, Word.__init__

    def counted_of(cls, *args):
        built[0] += 1
        return of(cls, *args)

    def counted_init(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(Word, "_of", classmethod(counted_of))
    monkeypatch.setattr(Word, "__init__", counted_init)
    return built


def test_reading_trivializing_and_writing_a_cocycle_builds_no_word(monkeypatch):
    data = json.loads((SOLVERS / "float_cocycle_m11_s5.json").read_text())
    rng = random.Random(43)
    phi = _random_cochain(rng, Alphabet(3), 2, max_len=3, terms=6)
    built = _count_words(monkeypatch)
    cocycle = Cochain.from_json_dict(data)
    psi, residual = trivialize(cocycle)
    written = psi.to_json_dict()
    assert len(residual) == 0 and written["terms"]
    assert coboundary(coboundary(phi)).is_zero()
    assert built[0] == 0
    # the table is decoded on first access only, and then kept
    assert psi.table is psi.table and built[0] > 0


def test_cochain_table_is_read_only():
    phi = Cochain(2, A2, {(Z0, Z1): 1.0})
    with pytest.raises(AttributeError):
        phi.table = {}
    with pytest.raises(TypeError):
        phi.table[(Z0, Z1)] = 2.0
    assert phi.table == {(Z0, Z1): 1 + 0j}


@st.composite
def cochain_pairs(draw):
    """Two dusty cochains of one shape, the second partly on the first's
    keys, moved by dust, so that their sums and differences cancel exactly
    and leave dust on both sides of PRUNE_EPS."""
    phi = draw(dusty_cochains())
    table = _table(draw, phi.alphabet, phi.arity, st.integers(-2, 2))
    for key, c in phi.table.items():
        if draw(st.booleans()):
            table[key] = c + draw(st.sampled_from([1, -1, 0, 2])) * DUST
    return phi, Cochain(phi.arity, phi.alphabet, table)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cochain_pairs(), st.sampled_from([0, 2, -1j, PRUNE_EPS / 4, 0.3 - 1.7j, 1 + DUST]))
def test_cochain_arithmetic_matches_the_dict_core_bit_for_bit(pair, scalar):
    phi, psi = pair
    negated = [(key, -c) for key, c in psi.table.items()]
    cases = [
        (phi + psi, chain(phi.table.items(), psi.table.items())),
        (phi - psi, chain(phi.table.items(), negated)),
        (-psi, negated),
        (scalar * phi, [(key, complex(scalar) * c) for key, c in phi.table.items()]),
    ]
    for result, terms in cases:
        expected = _sum_and_prune(terms)
        assert (result.arity, result.alphabet) == (phi.arity, phi.alphabet)
        assert len(result) == len(expected)
        assert _bits(result.table.items()) == _bits(expected.items())
