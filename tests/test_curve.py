import random
import time
from fractions import Fraction

import pytest

from chordcubic.chord import weierstrass_form
from chordcubic.curve import (
    CurvePoint,
    beta,
    enumerate_points,
    group_add,
    is_on_curve,
    negate,
    point_order,
    reduce_params,
    scalar_mul,
    three_torsion_flexes,
    translate_by_beta,
    two_torsion_points,
    validate_curve,
)
from chordcubic.plane import find_flexes_over_Fp, is_flex
from chordcubic.scalars import PrimeField


def test_validate_curve():
    assert validate_curve(0, 4).b == 4
    with pytest.raises(ValueError, match="beta degenerate"):
        validate_curve(0, 0)
    with pytest.raises(ValueError, match="double root"):
        validate_curve(2, 1)


def test_is_on_curve():
    params = validate_curve(0, 4)
    assert is_on_curve(params, (2, 4, 1))
    assert is_on_curve(params, (0, 1, 0))
    assert not is_on_curve(params, (1, 1, 1))
    with pytest.raises(ValueError):
        is_on_curve(params, (0, 0, 0))


def test_point_normalization():
    params = validate_curve(0, 4)
    doubled = CurvePoint(params, (4, 8, 2))
    assert str(doubled) == "[2:4:1]"
    assert str(CurvePoint(params, (0, 5, 0))) == "[0:1:0]"


def test_off_curve_point_rejected():
    with pytest.raises(ValueError):
        CurvePoint.affine(validate_curve(0, 4), 1, 1)


def test_group_identity_and_beta_order():
    params = validate_curve(0, 4)
    p = CurvePoint.affine(params, 2, 4)
    o = CurvePoint.infinity(params)
    assert group_add(o, p) == p
    assert group_add(p, o) == p
    assert group_add(beta(params), beta(params)).is_infinity


def test_two_torsion_chord():
    params = validate_curve(0, -1)
    total = group_add(CurvePoint.affine(params, -1, 0), beta(params))
    assert total == CurvePoint.affine(params, 1, 0)


def test_scalar_mul_examples():
    params = validate_curve(0, 4)
    p = CurvePoint.affine(params, 2, 4)
    assert scalar_mul(2, p) == beta(params)
    assert scalar_mul(0, p).is_infinity
    assert scalar_mul(4, p).is_infinity
    assert scalar_mul(-1, p) == negate(p)


def test_translate_examples():
    params = validate_curve(0, 4)
    assert translate_by_beta(CurvePoint.affine(params, 2, 4)) == CurvePoint.affine(
        params, 2, -4
    )
    other = validate_curve(-3, 2)
    assert translate_by_beta(CurvePoint.affine(other, 1, 0)) == CurvePoint.affine(
        other, 2, 0
    )
    assert translate_by_beta(CurvePoint.infinity(params)) == beta(params)
    assert translate_by_beta(beta(params)).is_infinity


def test_translate_matches_group_law_everywhere():
    for a, b, p in [(-3, 2, 7), (0, -1, 5), (0, 4, 101), (3, 1, 101)]:
        params = validate_curve(a, b)
        b_pt = beta(reduce_params(params, p))
        for q in enumerate_points(params, p):
            shifted = translate_by_beta(q)
            assert shifted == group_add(q, b_pt)
            assert translate_by_beta(shifted) == q


def test_two_torsion_points():
    def xs(points):
        return [str(q) for q in points]

    assert xs(two_torsion_points(validate_curve(-3, 2))) == [
        "[0:1:0]",
        "[0:0:1]",
        "[1:0:1]",
        "[2:0:1]",
    ]
    assert xs(two_torsion_points(validate_curve(0, -1))) == [
        "[0:1:0]",
        "[0:0:1]",
        "[-1:0:1]",
        "[1:0:1]",
    ]
    assert xs(two_torsion_points(validate_curve(0, 4))) == ["[0:1:0]", "[0:0:1]"]


def test_two_torsion_over_prime_field():
    params = reduce_params(validate_curve(0, 4), 5)
    points = two_torsion_points(params)
    assert len(points) == 4  # x^2 + 4 = (x-1)(x+1) mod 5
    assert all(q.is_infinity or q.y == 0 for q in points)


def test_enumerate_points_counts():
    assert len(enumerate_points(validate_curve(0, -1), 5)) == 8
    assert len(enumerate_points(validate_curve(0, 4), 5)) == 8
    points = enumerate_points(validate_curve(-3, 2), 7)
    assert len(points) == 8
    assert points[0].is_infinity
    assert any(not q.is_infinity and q.x == 0 and q.y == 0 for q in points)


def test_enumerate_rejects_singular_reduction():
    with pytest.raises(ValueError):
        enumerate_points(validate_curve(3, 1), 5)  # a^2 - 4b = 5


def test_hasse_window_and_parity():
    rng = random.Random(13)
    for p in (5, 7, 101, 211):
        for _ in range(5):
            a, b = rng.randrange(p), rng.randrange(p)
            if b == 0 or (a * a - 4 * b) % p == 0:
                continue
            field = PrimeField(p)
            count = len(enumerate_points(validate_curve(field(a), field(b)), p))
            assert (count - p - 1) ** 2 <= 4 * p
            assert count % 2 == 0


def test_group_axioms_sampled():
    rng = random.Random(21)
    params = validate_curve(-3, 2)
    points = enumerate_points(params, 101)
    for _ in range(25):
        p, q, r = (rng.choice(points) for _ in range(3))
        assert group_add(p, q) == group_add(q, p)
        assert group_add(group_add(p, q), r) == group_add(p, group_add(q, r))
        assert group_add(p, negate(p)).is_infinity


def test_cross_curve_operations_rejected():
    p = CurvePoint.affine(validate_curve(0, 4), 2, 4)
    q = beta(validate_curve(-3, 2))
    with pytest.raises(ValueError):
        group_add(p, q)


def test_three_torsion_over_Fp():
    assert [str(q) for q in three_torsion_flexes(validate_curve(0, -1), 5)] == [
        "[0:1:0]"
    ]
    for a, b, p in [(-3, 2, 101), (-6, -3, 101), (0, 4, 13)]:
        tor3 = three_torsion_flexes(validate_curve(a, b), p)
        assert tor3[0].is_infinity
        assert len(tor3) in (1, 3, 9)
        assert all(scalar_mul(3, q).is_infinity for q in tor3)


def test_rational_three_torsion_found():
    # (1, +-2) has order 3 on y^2 = x^3 - 2x^2 + 5x.
    tor3 = three_torsion_flexes(validate_curve(-2, 5))
    assert [str(q) for q in tor3] == ["[0:1:0]", "[1:-2:1]", "[1:2:1]"]
    tor3 = three_torsion_flexes(validate_curve(6, -3))
    assert [str(q) for q in tor3] == ["[0:1:0]", "[1:-2:1]", "[1:2:1]"]
    assert [str(q) for q in three_torsion_flexes(validate_curve(0, 4))] == ["[0:1:0]"]


def test_rational_three_torsion_on_a_scaled_model():
    # (-3, 3) has 3-torsion (1, +-1); scaled by u = 40 its coefficients
    # pass the search bound, so the search runs on the minimal model.
    tor3 = three_torsion_flexes(validate_curve(-4800, 7680000))
    assert [str(q) for q in tor3] == ["[0:1:0]", "[1600:-64000:1]", "[1600:64000:1]"]
    # u = 1/2: denominators are cleared the same way.
    tor3 = three_torsion_flexes(validate_curve(Fraction(-3, 4), Fraction(3, 16)))
    assert [str(q) for q in tor3] == ["[0:1:0]", "[1/4:-1/8:1]", "[1/4:1/8:1]"]
    # u = 23 is a prime above the fifth root of gcd(a^2, b) = 8 * 23^4;
    # unscaled, b^2 = 5e12 would pass the search bound and raise.
    tor3 = three_torsion_flexes(validate_curve(0, 8 * 23 ** 4))
    assert [str(q) for q in tor3] == ["[0:1:0]"]


def test_rational_three_torsion_refuses_an_undecidable_search():
    # b is prime, so the model is minimal and b^2 passes the search bound.
    with pytest.raises(ValueError, match="too large"):
        three_torsion_flexes(validate_curve(1, 10_000_019))


def test_three_torsion_points_are_hessian_flexes():
    # Rational case: the curve's own cubic must be inflected at 3-torsion.
    params = validate_curve(-2, 5)
    form = weierstrass_form(params)
    for q in three_torsion_flexes(params):
        assert is_flex(form, q.coords)
    # Finite-field case: flexes of the Weierstrass cubic = 3-torsion, exactly.
    from chordcubic.chord import normalize_triple

    for a, b, p in [(-3, 2, 7), (-6, -3, 101), (0, -1, 5)]:
        pp = reduce_params(validate_curve(a, b), p)
        flex_set = set(find_flexes_over_Fp(weierstrass_form(pp), p))
        tor3 = {normalize_triple(q.coords) for q in three_torsion_flexes(pp, p)}
        assert flex_set == tor3


def test_point_order():
    params = validate_curve(0, 4)
    assert point_order(CurvePoint.infinity(params)) == 1
    assert point_order(beta(params)) == 2
    assert point_order(CurvePoint.affine(params, 2, 4)) == 4


def test_point_order_over_Q_stops_at_the_mazur_bound():
    started = time.monotonic()
    with pytest.raises(ValueError, match=r"\[2:2:1\] has infinite order"):
        point_order(CurvePoint.affine(validate_curve(0, -2), 2, 2))
    assert time.monotonic() - started < 5
    # Over F_p the order may exceed 12: E(F_23) is cyclic of order 24 here.
    params = reduce_params(validate_curve(0, 4), 23)
    assert max(point_order(q) for q in enumerate_points(params, 23)) == 24
