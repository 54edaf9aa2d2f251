import operator
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from chordcubic.poly import (
    A,
    B,
    MultiPoly,
    X,
    Y,
    f_curve,
    reduce_mod_curve,
)
from chordcubic.scalars import PrimeField, squares_table
from oracles import poly_at


def test_poly_mul_examples():
    assert (X + Y) * (X - Y) == X ** 2 - Y ** 2
    assert (X + A) * (X + B) == X ** 2 + (A + B) * X + A * B
    assert (X ** 3 + Y) * MultiPoly() == 0


def test_reduce_mod_curve_examples():
    assert reduce_mod_curve(Y ** 2) == f_curve()
    assert reduce_mod_curve(Y ** 3) == Y * f_curve()
    assert reduce_mod_curve(Y ** 2 - f_curve()).is_zero


def test_reduce_is_idempotent():
    rng = random.Random(5)
    for _ in range(20):
        q = _random_poly(rng)
        once = reduce_mod_curve(q)
        assert reduce_mod_curve(once) == once
        assert max((k[1] for k in once.terms), default=0) <= 1


def test_reduce_is_a_ring_map():
    rng = random.Random(9)
    for _ in range(15):
        q, r = _random_poly(rng), _random_poly(rng)
        assert reduce_mod_curve(q * r) == reduce_mod_curve(
            reduce_mod_curve(q) * reduce_mod_curve(r)
        )


def test_substitution_commutes_with_reduction_on_curve_points():
    # On any point with y^2 = f(x), reduction must not change values.
    rng = random.Random(42)
    primes = [5, 7, 101, 409, 1009, 65521]
    checked = 0
    while checked < 100:
        p = rng.choice(primes)
        field = PrimeField(p)
        a, b = rng.randrange(p), rng.randrange(p)
        if b == 0 or (a * a - 4 * b) % p == 0:
            continue
        table = squares_table(p)
        x = rng.randrange(p)
        rhs = (x * x * x + a * x * x + b * x) % p
        if rhs not in table:
            continue
        y = table[rhs][0]
        point = {"x": x, "y": y, "a": a, "b": b}
        q = _random_poly(rng)
        assert poly_at(reduce_mod_curve(q), field, **point) == poly_at(q, field, **point)
        checked += 1


def test_ring_axioms_sampled():
    rng = random.Random(77)
    for _ in range(10):
        q, r, s = (_random_poly(rng) for _ in range(3))
        assert (q * r) * s == q * (r * s)
        assert q * (r + s) == q * r + q * s
        assert q + r == r + q


def test_is_zero():
    assert (X - X).is_zero
    assert MultiPoly().is_zero
    assert not (X - Y).is_zero


def test_canonical_text_form():
    q = 2 * Y * X - Fraction(1, 2) * B + X ** 2
    assert str(q) == "2·x·y + 1·x^2 + -1/2·b"
    assert str(MultiPoly()) == "0"


def test_equal_polys_have_identical_tables():
    lhs = (X + Y) * (X + Y)
    rhs = X ** 2 + 2 * X * Y + Y ** 2
    assert lhs.terms == rhs.terms


def test_reduce_matches_the_term_by_term_oracle():
    rng = random.Random(13)
    for ints in (True, False):
        for _ in range(40):
            q = _random_poly(rng, max_y=6, ints=ints)
            assert reduce_mod_curve(q).terms == _reduce_term_by_term(q).terms


def test_int_polys_keep_int_coefficients():
    rng = random.Random(21)
    for _ in range(20):
        q, r = _random_poly(rng, max_y=6, ints=True), _random_poly(rng, ints=True)
        for result in (q + r, q - r, -q, 2 * q + 1, q * r, r ** 3, reduce_mod_curve(q * r)):
            assert all(type(c) is int for c in result.terms.values())
    assert all(type(c) is int for c in (X * Y - f_curve() ** 2 + A).terms.values())


def test_int_and_fraction_coefficients_are_stored_as_given():
    key = (1, 0, 0, 0)
    for given in (3, Fraction(3), Fraction(-1, 2)):
        (stored,) = MultiPoly({key: given}).terms.values()
        assert stored is given


def test_other_coefficients_convert_to_fractions():
    key = (1, 0, 0, 0)
    for raw, want in ((0.5, Fraction(1, 2)), ("1/3", Fraction(1, 3)), (True, Fraction(1))):
        (coeff,) = MultiPoly({key: raw}).terms.values()
        assert type(coeff) is Fraction and coeff == want


def test_zero_coefficients_are_dropped():
    for zero in (0, Fraction(0), 0.0, "0", False):
        assert MultiPoly({(1, 0, 0, 0): zero, (0, 1, 0, 0): 2}).terms == {(0, 1, 0, 0): 2}
    assert (X + 1 - X - 1).terms == {}
    assert (Fraction(1, 2) * X - Fraction(1, 2) * X).terms == {}
    assert (X * (Y + 1) - X * Y - X).terms == {}
    assert reduce_mod_curve(Y ** 2 - f_curve()).terms == {}


def test_arithmetic_results_are_what_the_public_constructor_builds():
    # Arithmetic skips the key check and the coefficient conversion of
    # MultiPoly(terms); its tables must still pass both unchanged.
    rng = random.Random(31)
    for ints in (True, False):
        for _ in range(25):
            q, r = _random_poly(rng, max_y=4, ints=ints), _random_poly(rng, ints=ints)
            results = [q + r, q - r, r - q, -q, q * r, q - q, 1 - q, 2 * q + 1]
            results += [reduce_mod_curve(q), reduce_mod_curve(q * r)]
            product = MultiPoly({(0, 0, 0, 0): 1})
            for e in range(7):
                assert q ** e == product
                results.append(q ** e)
                product = product * q
            for result in results:
                assert MultiPoly(result.terms).terms == result.terms
                for key, coeff in result.terms.items():
                    assert type(key) is tuple and len(key) == 4
                    assert all(type(e) is int and e >= 0 for e in key)
                    assert type(coeff) in (int, Fraction) and coeff != 0
    assert MultiPoly() ** 0 == 1


EXACT = st.integers(-9, 9) | st.fractions(-9, 9, max_denominator=4)
POLYS = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 4), EXACT, max_size=5).map(MultiPoly)


@settings(max_examples=150, deadline=None)
@given(POLYS, EXACT, st.integers(1, 5))
def test_arithmetic_with_a_constant_matches_the_constructed_constant(q, c, n):
    # Arithmetic builds its constants through the private constructor; the
    # tables and coefficient types must be those of MultiPoly({...}).
    const, one = MultiPoly({(0, 0, 0, 0): c}), MultiPoly({(0, 0, 0, 0): 1})
    power = one
    for _ in range(n):
        power = power * q
    pairs = [
        (c * q, const * q),
        (q * c, q * const),
        (q + c, q + const),
        (c - q, const - q),
        (q ** 0, one),
        (q ** n, power),
    ]
    for got, want in pairs:
        assert got.terms == want.terms
        assert {k: type(v) for k, v in got.terms.items()} == {
            k: type(v) for k, v in want.terms.items()
        }
    for op in (operator.mul, operator.add, operator.sub):
        for lhs, rhs in ((q, True), (False, q)):
            with pytest.raises(TypeError):
                op(lhs, rhs)


@pytest.mark.parametrize("key", [(1, 0, 0), (1, -1, 0, 0), (1.0, 0, 0, 0), [1, 0, 0, 0]])
def test_public_constructor_rejects_malformed_keys(key):
    # A stand-in mapping, since a list key cannot sit in a dict.
    terms = SimpleNamespace(items=lambda: [(key, 1)])
    with pytest.raises(ValueError, match="exponent key must be 4 nonnegative ints"):
        MultiPoly(terms)


def _reduce_term_by_term(q: MultiPoly) -> MultiPoly:
    """The slow reducer: one MultiPoly per term, added to a growing sum."""
    f = f_curve()
    powers = {0: MultiPoly({(0, 0, 0, 0): 1})}
    out = MultiPoly()
    for (ex, ey, ea, eb), coeff in q.terms.items():
        half, rem = divmod(ey, 2)
        term = MultiPoly({(ex, rem, ea, eb): coeff})
        if half:
            while half not in powers:
                k = max(powers)
                powers[k + 1] = powers[k] * f
            term = term * powers[half]
        out = out + term
    return out


def _random_poly(rng: random.Random, max_y: int = 2, ints: bool = False) -> MultiPoly:
    """Up to 5 terms, exponents below 3 and y-degree at most max_y.

    Coefficients are ints in -9..9 when ``ints``, else Fractions with
    denominators 1..4.
    """
    terms = {}
    for _ in range(rng.randrange(1, 6)):
        key = tuple(rng.randrange(max_y + 1 if i == 1 else 3) for i in range(4))
        num = rng.randrange(-9, 10)
        terms[key] = num if ints else Fraction(num, rng.randrange(1, 5))
    return MultiPoly(terms)
