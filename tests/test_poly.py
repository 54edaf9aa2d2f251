import random
from fractions import Fraction

import pytest

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


def test_poly_mul_examples():
    assert (X + Y) * (X - Y) == X ** 2 - Y ** 2
    assert (X + A) * (X + B) == X ** 2 + (A + B) * X + A * B
    assert (X ** 3 + Y) * MultiPoly.zero() == 0


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


def test_substitute_examples():
    assert (X ** 2 + B).evaluate(x=2, b=4) == 8
    half = Fraction(1, 2)
    assert (half * X * Y - A).evaluate(x=3, y=Fraction(1, 3), a=1) == -half
    assert f_curve().evaluate(x=3, a=1, b=PrimeField(7)(2)) == PrimeField(7)(0)
    assert MultiPoly.const(Fraction(1, 2)).evaluate(x=PrimeField(5)(1)) == PrimeField(5)(3)
    field = PrimeField(5)
    with pytest.raises(ZeroDivisionError):
        (Fraction(1, 5) * X).evaluate(x=field(2))


def test_substitute_rejects_partial_prime_field_assignment():
    field = PrimeField(7)
    with pytest.raises(ValueError):
        (X + Y).evaluate(x=field(1))
    with pytest.raises(ValueError):
        (X + Y).evaluate(x=1)
    with pytest.raises(ValueError):
        X.evaluate(x=field(1), y=PrimeField(5)(1))


def test_substitute_unknown_variable():
    with pytest.raises(ValueError):
        X.evaluate(x=1, z=1)


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
        point = {"x": field(x), "y": field(y), "a": field(a), "b": field(b)}
        q = _random_poly(rng)
        assert reduce_mod_curve(q).evaluate(**point) == q.evaluate(**point)
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
    assert MultiPoly.zero().is_zero
    assert not (X - Y).is_zero


def test_canonical_text_form():
    q = 2 * Y * X - Fraction(1, 2) * B + X ** 2
    assert str(q) == "2·x·y + 1·x^2 + -1/2·b"
    assert str(MultiPoly.zero()) == "0"


def test_equal_polys_have_identical_tables():
    lhs = (X + Y) * (X + Y)
    rhs = X ** 2 + 2 * X * Y + Y ** 2
    assert lhs.terms == rhs.terms


def _random_poly(rng: random.Random) -> MultiPoly:
    terms = {}
    for _ in range(rng.randrange(1, 6)):
        key = tuple(rng.randrange(3) for _ in range(4))
        terms[key] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
    return MultiPoly(terms)
