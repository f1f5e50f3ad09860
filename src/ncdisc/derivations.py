"""Derivations with series values, determined on generators by the Leibniz rule.

A derivation D of the algebra spanned by the basis shifts is fixed by its
values on the generators; the value on a word expands by the Leibniz rule.
For consistent generator data the solver reconstructs a single series t
whose commutator reproduces the derivation:

    D(phi) = phi * t - t * phi.

The solver sums conjugate-transport iterates of the value at the first
generator, exact on finitely supported consistent data; it peels each other
generator b from ``D(z_b) - [xi_{z_b}, t]`` for the t found so far, and
computes each final commutator ``[xi_{z_a}, t]`` once, to screen t and to
report its deviation.  The screen and the conjugate sums take ``(w, value)``
with value the expanded D(w), in the order of ``conjugate_by(w, phi)``, so
a caller expands each value once.  Typed errors surface the necessary
conditions: no weight on words commuting with the base word or below its
length, and, once the first generator is trivialized, the other values pair
words against its powers with opposite weights.
"""

from __future__ import annotations

import cmath
from itertools import chain
from typing import Mapping, Optional

from .series import (
    Series,
    _json_int,
    _json_typed,
    _shifted,
    _transported,
    cesaro,
    conditional_expectation,
    max_coeff_diff,
)
from .words import _INDEX, Alphabet, Word, _check_letter

#: Coefficient deviations below this are treated as zero in solver checks.
CHECK_TOL = 1e-12

#: Most generators a derivation read from JSON may have.  A derivation holds
#: a value per generator and the solver peels and screens each one, so its
#: cost grows with the alphabet whatever the input's size: about 30 us and
#: 0.5 kB per generator, 0.13 s at this budget for the zero derivation.
MAX_GENERATORS = 4096


class InconsistentDerivationError(ValueError):
    """Generator data that cannot extend to a derivation with series values.

    ``check`` names the violated screen and ``word`` the offending word when
    one exists; where one term is at fault, the message gives its coefficient.
    """

    def __init__(self, check: str, message: str, word: Optional[Word] = None):
        super().__init__(message)
        self.check = check
        self.word = word


def inner_derivation(t: Series, phi: Series) -> Series:
    """The commutator derivation with symbol t: ``phi * t - t * phi``, as one
    canonical step over both products' terms; at ``xi_w``, t's words shifted
    by w on the left less those shifted on the right."""
    phi._check_operand(t)
    left = ((u * v, a * b) for u, a in phi.table.items() for v, b in t.table.items())
    right = ((v * u, -(b * a)) for v, b in t.table.items() for u, a in phi.table.items())
    return phi._like(chain(left, right))


class GeneratorDerivation:
    """A derivation given by one finitely supported series per generator."""

    __slots__ = ("alphabet", "values")

    def __init__(self, alphabet: Alphabet, values: Mapping[int, Series]):
        for key in values:
            _check_letter(key, alphabet.size)
        table: dict[int, Series] = {}
        for a in alphabet.letters():
            value = values.get(a)
            if value is None:
                value = Series.zero(alphabet)
            elif value.alphabet is not alphabet:
                raise ValueError("generator value over a different alphabet")
            table[a] = value
        self.alphabet = alphabet
        self.values = table

    @classmethod
    def inner(cls, t: Series) -> "GeneratorDerivation":
        """The restriction of the commutator derivation with symbol t."""
        alphabet = t.alphabet
        return cls(
            alphabet,
            {
                a: inner_derivation(t, Series.basis(alphabet.generator(a)))
                for a in alphabet.letters()
            },
        )

    def value(self, letter: int) -> Series:
        return self.values[letter]

    def of_word(self, w: Word) -> Series:
        """Leibniz expansion: sum over positions of prefix * value * suffix.

        The unit maps to zero, and a generator to its stored value.
        """
        alphabet = self.alphabet
        letters = w.letters
        if len(letters) == 1:
            return self.values[letters[0]]
        return Series._from_valid(
            alphabet,
            (
                (Word._of(alphabet, letters[:i] + u.letters + letters[i + 1 :]), c)
                for i, a in enumerate(letters)
                for u, c in self.values[a].iter_terms()
            ),
        )

    def to_json_dict(self) -> dict:
        return {
            "alphabet": self.alphabet.size,
            "values": {
                str(a): self.values[a].to_json_dict() for a in self.alphabet.letters()
            },
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "GeneratorDerivation":
        """The derivation of ``data``; an alphabet over ``MAX_GENERATORS`` is
        refused before any generator's value is read or built."""
        size = _json_int(data["alphabet"], "alphabet size")
        if size > MAX_GENERATORS:
            raise ValueError(f"alphabet size {size} is over {MAX_GENERATORS} generators")
        alphabet = Alphabet(size)
        table = _json_typed(data.get("values", {}), dict, "the values")
        values: dict[int, Series] = {}
        for key, sub in table.items():
            if not isinstance(key, str) or not _INDEX.fullmatch(key):
                raise ValueError(f"generator key {key!r} is not a canonical decimal index")
            value = _json_typed(sub, dict, f"the value of generator {key}")
            values[int(key)] = Series.from_json_dict(value)
        return cls(alphabet, values)


def first_screen_violation(w: Word, value: Series) -> Optional[tuple[str, Word, complex]]:
    """The first term of the value D(w) that a necessary screen refuses, as
    ``(check, word, coefficient)``, or None when both screens pass.

    Weight on a word commuting with w (``commuting_support``) grows linearly
    along powers of w, contradicting boundedness; no weight may sit below the
    length of w either (``short_support``).  One pass over the terms; a
    commuting term is reported before any short one.
    """
    n = len(w)
    short = None
    for u, c in value.iter_terms():
        if u.commutes_with(w):
            return "commuting_support", u, c
        if short is None and len(u) < n:
            short = "short_support", u, c
    return short


def _conjugate_iterates(w: Word, phi: Series) -> list[list[tuple[Word, complex]]]:
    """The terms of the conjugate-transport iterates of phi along w before the
    first empty one.  For consistent data they die within about ``deg / |w|``
    steps; the cap is ``deg + 3``.  Raises when none of the first ``cap + 1``
    is empty, which happens exactly when phi has weight on a word commuting
    with w.

    Transport is injective and keeps phi's canonical coefficients, so each
    iterate is the term list of ``conjugate_by`` with no canonical step.
    """
    cap = (0 if phi.is_zero() else int(phi.degree())) + 3
    iterates = []
    terms = list(phi.iter_terms())
    for _ in range(cap + 1):
        if not terms:
            return iterates
        iterates.append(terms)
        terms = list(_transported(w, terms))
    raise InconsistentDerivationError(
        "persistent_conjugates",
        f"conjugate transport iterates along {w} did not vanish within {cap} steps; "
        f"the value has weight on words commuting with {w}",
        word=w,
    )


def _iterate_sum(value: Series, iterates: list[list[tuple[Word, complex]]]) -> Series:
    """The iterates of ``_conjugate_iterates`` in one canonical step, in order."""
    return value._like(chain.from_iterable(iterates))


def stabilized_conjugate_sum(w: Word, value: Series) -> Series:
    """Sum of the conjugate-transport iterates of the value D(w).

    The partial sums stabilize once an iterate vanishes; the stabilized sum
    s, taken in one canonical step over the iterates in order, satisfies
    ``D(w) = s - conjugate_by(w, s)`` exactly.
    """
    if w.is_unit():
        raise ValueError("the unit has value zero; no sum to stabilize")
    return _iterate_sum(value, _conjugate_iterates(w, value))


def solve_local_inner(derivation: GeneratorDerivation, w: Word) -> Series:
    """A series t with ``D(w) = xi_w * t - t * xi_w``, for consistent data.

    Built from the stabilized conjugate sum in one pass: terms below the
    length of w are dropped (they vanish for consistent data), the remaining
    terms must all be left-divisible by w, and stripping that prefix yields t.
    The commutator identity is re-verified before returning; the weight of t
    at the unit is normalized to zero.
    """
    if w.is_unit():
        raise ValueError("cannot solve at the unit")
    value = derivation.of_word(w)
    total = stabilized_conjugate_sum(w, value)
    terms = []
    for u, c in total.iter_terms():
        rest = u.strip_prefix(w)
        if rest is None:
            if len(u) >= len(w):
                raise InconsistentDerivationError(
                    "residual",
                    f"stabilized sum has weight {c} at {u}, not left-divisible by {w}",
                    word=u,
                )
        elif rest.letters:
            terms.append((rest, c))
    t = total._like(terms)
    produced = inner_derivation(t, Series.basis(w))
    if max_coeff_diff(produced, value) > CHECK_TOL:
        raise InconsistentDerivationError(
            "local_commutator",
            f"commutator with the recovered series does not reproduce the value at {w}",
            word=w,
        )
    return t


def _check_pair_structure(value: Series, beta: int, alpha: int) -> None:
    """Screen for generator values once the generator alpha is trivialized.

    Every term must be the generator beta against a positive power of the
    generator alpha, on one side or the other, and the two sides must carry
    opposite weights.
    """
    alphabet = value.alphabet
    for u, c in value.iter_terms():
        power = (alpha,) * (len(u) - 1)
        if power and u.letters == (beta,) + power:
            partner = Word._of(alphabet, power + (beta,))
        elif power and u.letters == power + (beta,):
            partner = Word._of(alphabet, (beta,) + power)
        else:
            raise InconsistentDerivationError(
                "pair_structure",
                f"value at generator z{beta} has weight {c} at {u}, outside the "
                f"family pairing z{beta} with powers of z{alpha}",
                word=u,
            )
        if abs(value.coeff(partner) + c) > CHECK_TOL:
            raise InconsistentDerivationError(
                "pair_structure",
                f"weight {c} at {u} is not matched by the opposite weight at {partner}",
                word=u,
            )


def solve_inner_symbol(derivation: GeneratorDerivation) -> Series:
    """Recover a series t with ``D(z_a) = [xi_{z_a}, t]`` for every generator.

    Pipeline: screen the generator values, solve locally at the first
    generator, then peel each other generator b via the pair structure of
    ``D(z_b) - [xi_{z_b}, t]`` for the t recovered so far; last, compare each
    ``[xi_{z_a}, t]`` with ``D(z_a)``.  The recovered series is unique up to
    its weight at the unit, which :func:`solve_local_inner` normalizes to zero.
    """
    return _solve_with_deviations(derivation)[0]


def _solve_with_deviations(derivation: GeneratorDerivation) -> tuple[Series, list[float]]:
    """``solve_inner_symbol`` and, per generator a, the deviation
    ``max_coeff_diff([xi_{z_a}, t], D(z_a))`` its last screen computes."""
    alphabet = derivation.alphabet
    for a in alphabet.letters():
        violation = first_screen_violation(alphabet.generator(a), derivation.value(a))
        if violation is not None:
            # the only word shorter than a generator is the unit, which commutes
            # with it, so the violation is always ``commuting_support``
            check, u, c = violation
            raise InconsistentDerivationError(
                check,
                f"value at generator z{a} has weight {c} at {u}, which commutes with z{a}",
                word=u,
            )

    generators = [Series.basis(alphabet.generator(a)) for a in alphabet.letters()]
    symbol = solve_local_inner(derivation, alphabet.generator(0))
    for b in range(1, alphabet.size):
        value = derivation.value(b) - inner_derivation(symbol, generators[b])
        _check_pair_structure(value, b, 0)
        # the pair screen leaves z_b z0^k and z0^k z_b (k >= 1), which the shift
        # makes z0^k; one canonical step adds them, as ``symbol + adjoint_shift`` would
        shifted = _shifted(alphabet.generator(b), value.iter_terms())
        symbol = symbol._like(chain(symbol.iter_terms(), shifted))
    # past float range the tolerance screens compare NaN, which passes them
    if not all(map(cmath.isfinite, symbol.table.values())):
        raise InconsistentDerivationError("non_finite", "recovered series leaves float range")
    deviations = [
        max_coeff_diff(inner_derivation(symbol, xi), derivation.value(a))
        for a, xi in enumerate(generators)
    ]
    for a, deviation in enumerate(deviations):
        if deviation > CHECK_TOL:
            raise InconsistentDerivationError(
                "generator_residual",
                f"recovered series leaves a residue of size {deviation:.3e} at generator z{a}",
            )
    return symbol, deviations


def normal_approx_check(
    t: Series,
    phi: Series,
    k: int,
    letters: frozenset[int] | set[int],
) -> bool:
    """Approximation pipeline for the commutator derivation with symbol t.

    Smoothing phi with the order-k Fejer weights and restricting to a
    sub-alphabet commutes with applying the derivation; once the letters
    cover the support of phi the restriction acts as the identity, and the
    smoothed value approaches the true value with the explicit error bound

        || D_t(smoothed) - D_t(phi) ||_2 <= 2 ||t||_1 (deg phi / k) ||phi||_2,

    using that left and right shifts are isometries.
    """
    letters = frozenset(letters)
    smoothed = cesaro(phi, k)
    projected = conditional_expectation(smoothed, letters)
    approx = inner_derivation(t, projected)
    exact = inner_derivation(t, smoothed)
    ok = True
    if letters >= phi.letters_used():
        ok = ok and projected == smoothed
        ok = ok and approx == exact
    if not phi.is_zero():
        error = (exact - inner_derivation(t, phi)).l2_norm()
        bound = 2.0 * t.l1_norm() * (phi.degree() / k) * phi.l2_norm()
        ok = ok and error <= bound + CHECK_TOL
    return ok
