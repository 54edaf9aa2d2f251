import random
from fractions import Fraction
from itertools import product

import pytest

from chordcubic import scalars
from chordcubic.scalars import (
    PrimeField,
    PrimeFieldScalar,
    _quadratic_zeros,
    _roots_mod,
    _values_mod,
    horner,
    is_prime,
    squares_table,
)
from oracles import roots_by_scan


def test_fermat_little_theorem_sampled():
    rng = random.Random(11)
    for p in (5, 13, 101, 65521):
        for _ in range(10):
            s = PrimeFieldScalar(rng.randrange(1, p), p)
            assert s ** (p - 1) == 1
            assert s * s.inverse() == 1
            assert s ** -1 == s.inverse()
        with pytest.raises(ZeroDivisionError):
            PrimeFieldScalar(0, p).inverse()


def test_rational_arithmetic_is_exact():
    rng = random.Random(3)
    for _ in range(100):
        a = Fraction(rng.randrange(-99, 99), rng.randrange(1, 99))
        c = Fraction(rng.randrange(-99, 99), rng.randrange(1, 99))
        assert (a + c) - c == a
        assert (a * c) / c == a if c else True


def test_squares_table_p7():
    table = squares_table(7)
    assert set(table) == {0, 1, 2, 4}
    assert table[2] == (3, 4)
    assert 3 not in table


def test_squares_table_shape():
    for p in (5, 7, 101, 211):
        table = squares_table(p)
        assert len(table) == (p + 1) // 2
        roots = [y for ys in table.values() for y in ys]
        assert sorted(roots) == list(range(p))
        for r, ys in table.items():
            for y in ys:
                assert y * y % p == r


def test_quadratic_zeros_match_a_scan():
    for p in (5, 7, 11):
        for c0, c1, c2 in product(range(p), repeat=3):
            scan = [z for z in range(p) if (c2 * z * z + c1 * z + c0) % p == 0]
            assert sorted(_quadratic_zeros(c0, c1, c2, p)) == scan
        assert list(_quadratic_zeros(0, 0, 0, p)) == list(range(p))
        for c0, c1 in product(range(p), range(1, p)):
            assert list(_quadratic_zeros(c0, c1, 0, p)) == [-c0 * pow(c1, -1, p) % p]


@pytest.mark.parametrize("bad", [1, 2, 3, 4, 9, 91, 1 << 16, 65537, (1 << 16) + 3])
def test_bad_moduli_rejected(bad):
    with pytest.raises(ValueError):
        squares_table(bad)
    with pytest.raises(ValueError):
        PrimeField(bad)


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_prime_field_scalar_mixes_with_int():
    s = PrimeFieldScalar(3, 7)
    assert s + 5 == 1
    assert 5 + s == 1
    assert s - 5 == 5
    assert 5 - s == 2
    assert 2 * s == 6
    assert s / 3 == 1
    assert 1 / s == 5
    assert -s == 4
    assert s ** 0 == 1
    assert s ** -1 == 5


def test_prime_field_scalar_rejects_mixed_moduli():
    with pytest.raises(ValueError):
        PrimeFieldScalar(1, 5) + PrimeFieldScalar(1, 7)


def test_prime_field_from_rational():
    field = PrimeField(7)
    assert field(Fraction(1, 2)) == 4
    with pytest.raises(ZeroDivisionError):
        field(Fraction(1, 7))
    rng, p = random.Random(19), 65521
    field = PrimeField(p)
    for _ in range(50):
        q = Fraction(rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(1, 10 ** 6))
        if q.denominator % p:
            assert field(q) == q.numerator * pow(q.denominator, -1, p) % p


def test_renderings():
    assert str(PrimeFieldScalar(3, 7)) == "3 mod 7"
    assert str(Fraction(-3, 6)) == "-1/2"
    assert str(Fraction(4, 2)) == "2"


def test_values_mod_fields_hold_at_the_widest_polynomial():
    # Every coefficient q - 1 at degree 11 and the top of the domain gives
    # the widest fields the differences can need: no field may carry.
    q = 65521
    coeffs = [q - 1] * 12
    assert list(_values_mod(coeffs, q)) == [horner(coeffs, t) % q for t in range(q)]


def test_values_mod_folds_exponents_at_or_above_q():
    # At q <= 11 a degree-11 polynomial is folded by x^q = x before its
    # differences are set up; the values and the roots must not change.
    rng = random.Random(58)
    for q in (5, 7, 11):
        x_q_minus_x = [0, -1] + [0] * (q - 2) + [1]
        assert _roots_mod(x_q_minus_x, q) == roots_by_scan(x_q_minus_x, q) == list(range(q))
        for _ in range(200):
            coeffs = [rng.randrange(-2 * q, 2 * q) for _ in range(12)]
            assert list(_values_mod(coeffs, q)) == [horner(coeffs, t) % q for t in range(q)]
            assert _roots_mod(coeffs, q) == roots_by_scan(coeffs, q)


def test_values_mod_of_a_constant_steps_no_difference(monkeypatch):
    # Polynomials that are constant mod q, some only after the reduction
    # of their coefficients or the folding by x^q = x, are tabulated
    # without stepping differences; any other is stepped.
    q = 7
    constants = ([0], [3], [3, 0, 0], [3, q, -2 * q], [-4, 1, 0, 0, 0, 0, 0, -1])
    stepped = scalars._stepped
    monkeypatch.setattr(scalars, "_stepped", None)
    for coeffs in constants:
        assert list(_values_mod(coeffs, q)) == [horner(coeffs, t) % q for t in range(q)]
        assert len(set(_values_mod(coeffs, q))) == 1
    calls = []
    monkeypatch.setattr(scalars, "_stepped", lambda *args: calls.append(args) or stepped(*args))
    for coeffs in ([0, 1], [3, 0, q + 1], [0, 0, 0, 0, 0, 0, 0, 0, 1]):
        assert list(_values_mod(coeffs, q)) == [horner(coeffs, t) % q for t in range(q)]
    assert len(calls) == 3
