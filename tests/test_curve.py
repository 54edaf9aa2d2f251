import random
import time
from fractions import Fraction

import pytest

from chordcubic import curve
from chordcubic.chord import weierstrass_form
from chordcubic.curve import (
    CurvePoint,
    affine_points_mod_p,
    beta,
    enumerate_points,
    group_add,
    is_on_curve,
    negate,
    point_order,
    reduce_params,
    scalar_mul,
    scalar_mul_mod_p,
    three_torsion_flexes,
    translate_by_beta,
    two_torsion_points,
    validate_curve,
)
from chordcubic.plane import find_flexes_over_Fp, is_flex
from chordcubic.scalars import PrimeField, PrimeFieldScalar
from fp_strategies import curve_residues, curves, hypothesis_api, outcome, triples
from oracles import roots_by_scan


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


def test_point_normalization_over_Fp():
    params = reduce_params(validate_curve(-3, 2), 101)
    scaled = CurvePoint(params, (3 * 7, 39 * 7, PrimeFieldScalar(7, 101)))
    assert str(scaled) == "[3:39:1]"
    assert all(isinstance(c, PrimeFieldScalar) for c in scaled.coords)
    assert str(CurvePoint(params, (0, 5, 0))) == "[0:1:0]"
    assert CurvePoint(params, (Fraction(3, 2), Fraction(39, 2), Fraction(1, 2))) == scaled


def test_every_point_over_Fp_is_checked_on_the_curve():
    params = reduce_params(validate_curve(-3, 2), 101)
    with pytest.raises(ValueError, match=r"point \[3:40:1\] is not on y\^2 = "):
        CurvePoint(params, (3, 40, 1))
    with pytest.raises(ValueError, match=r"point \[1:0:0\] is not on"):
        CurvePoint(params, (1, 0, 0))
    with pytest.raises(ValueError, match="must not all vanish"):
        CurvePoint(params, (0, 101, 0))
    with pytest.raises(ValueError, match="scalar mod 103 is not in F_101"):
        CurvePoint(params, (PrimeFieldScalar(3, 103), 39, 1))
    with pytest.raises(ZeroDivisionError, match="not invertible mod 101"):
        CurvePoint(params, (3, 39, Fraction(1, 101)))


def _point_by_scalar_oracle(params, coords):
    """The stored coordinates by is_on_curve and division in the field."""
    if not is_on_curve(params, coords):
        shown = ":".join(str(getattr(c, "value", c)) for c in coords)
        raise ValueError(f"point [{shown}] is not on {params}")
    x, y, z = (params.coerce(c) for c in coords)
    if z != 0:
        return (x / z, y / z, params.scalar(1))
    return (params.scalar(0), params.scalar(1), params.scalar(0))


def test_int_construction_matches_the_scalar_oracle():
    given, settings, st = hypothesis_api(max_examples=150)

    @settings
    @given(st.data())
    def check(data):
        a, b, p = data.draw(curves(st))
        params = reduce_params(validate_curve(a, b), p)
        coords = data.draw(triples(st, p, curve_residues(a, b, p)))
        assert outcome(lambda: CurvePoint(params, coords).coords) == outcome(
            lambda: _point_by_scalar_oracle(params, coords)
        )

    check()


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


def test_scalar_mul_of_three_makes_two_additions(monkeypatch):
    params = reduce_params(validate_curve(-3, 2), 31)
    q = next(q for q in enumerate_points(params, 31) if point_order(q) > 3)
    calls = []

    def counted(p1, p2):
        calls.append((p1, p2))
        return group_add(p1, p2)

    monkeypatch.setattr(curve, "group_add", counted)
    assert scalar_mul(3, q) == group_add(group_add(q, q), q)
    assert len(calls) == 2
    for n in range(1, 40):
        calls.clear()
        scalar_mul(n, q)
        assert len(calls) == n.bit_length() + bin(n).count("1") - 2


def test_scalar_mul_equals_repeated_addition():
    params = reduce_params(validate_curve(-3, 2), 31)
    points = enumerate_points(params, 31)
    for q in points:
        multiple = CurvePoint.infinity(params)
        for n in range(len(points) + 2):
            assert scalar_mul(n, q) == multiple, (n, q)
            assert scalar_mul(-n, q) == negate(multiple), (-n, q)
            multiple = group_add(multiple, q)


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

    # -1 is 6 mod 7, and x^2 + 4 has no root there: -1 is not a square.
    def mod7(a, b):
        return two_torsion_points(reduce_params(validate_curve(a, b), 7))

    assert xs(mod7(-3, 2)) == ["[0:1:0]", "[0:0:1]", "[1:0:1]", "[2:0:1]"]
    assert xs(mod7(0, -1)) == ["[0:1:0]", "[0:0:1]", "[1:0:1]", "[6:0:1]"]
    assert xs(mod7(0, 4)) == ["[0:1:0]", "[0:0:1]"]


def test_two_torsion_over_prime_field():
    params = reduce_params(validate_curve(0, 4), 5)
    points = two_torsion_points(params)
    assert len(points) == 4  # x^2 + 4 = (x-1)(x+1) mod 5
    assert all(q.is_infinity or q.y == 0 for q in points)
    # Differential check: O, then the points y = 0 of the exhaustive scan
    # (beta = (0, 0) first), in order, on every smooth curve at every prime
    # 5 <= p <= 31.
    curves_checked = 0
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        for a in range(p):
            for b in range(1, p):
                if (a * a - 4 * b) % p == 0:
                    continue
                found = two_torsion_points(reduce_params(validate_curve(a, b), p))
                pairs = [None if q.is_infinity else (q.x.value, q.y.value) for q in found]
                scanned = [None] + [s for s in affine_points_mod_p(a, b, p) if s[1] == 0]
                assert pairs == scanned, (a, b, p)
                curves_checked += 1
    assert curves_checked == 3044


def test_torsion_over_Q_is_refused():
    # Torsion and point orders are computed over F_p only.  A point of
    # infinite order over Q is refused at once, not added up without end.
    with pytest.raises(ValueError, match="over F_p only"):
        two_torsion_points(validate_curve(-3, 2))
    with pytest.raises(ValueError, match="over F_p only"):
        three_torsion_flexes(validate_curve(-2, 5))
    with pytest.raises(ValueError, match="over F_p only"):
        point_order(beta(validate_curve(0, 4)))
    started = time.monotonic()
    with pytest.raises(ValueError, match="over F_p only"):
        point_order(CurvePoint.affine(validate_curve(0, -2), 2, 2))
    assert time.monotonic() - started < 5


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


def test_three_torsion_of_Fp_parameters_needs_no_prime():
    # (-3, 2) has only O in E[3] mod 31, and O and one pair +-q mod 1019.
    for p, size in ((31, 1), (1019, 3)):
        pp = reduce_params(validate_curve(-3, 2), p)
        tor3 = three_torsion_flexes(pp)
        assert len(tor3) == size
        assert tor3 == three_torsion_flexes(pp, p)


def test_three_torsion_over_Fp():
    assert [str(q) for q in three_torsion_flexes(validate_curve(0, -1), 5)] == [
        "[0:1:0]"
    ]
    for a, b, p in [(-3, 2, 101), (-6, -3, 101), (0, 4, 13)]:
        tor3 = three_torsion_flexes(validate_curve(a, b), p)
        assert tor3[0].is_infinity
        assert len(tor3) in (1, 3, 9)
        assert all(scalar_mul(3, q).is_infinity for q in tor3)
    # Differential check against the exhaustive scan of E(F_p), in order,
    # on every smooth curve at every prime 5 <= p <= 31, by the int group
    # law; every 20th curve is also scanned by the scalar group law.
    curves_checked = 0
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        for a in range(p):
            for b in range(1, p):
                if (a * a - 4 * b) % p == 0:
                    continue
                pp = reduce_params(validate_curve(a, b), p)
                found = three_torsion_flexes(pp, p)
                pairs = [None if q.is_infinity else (q.x.value, q.y.value) for q in found]
                scanned = [
                    s
                    for s in [None] + affine_points_mod_p(a, b, p)
                    if scalar_mul_mod_p(a, b, p, 3, s) is None
                ]
                assert pairs == scanned, (a, b, p)
                if curves_checked % 20 == 0:
                    assert found == [
                        q for q in enumerate_points(pp, p) if scalar_mul(3, q).is_infinity
                    ]
                curves_checked += 1
    assert curves_checked == 3044


def test_roots_mod_match_a_scan_of_the_full_polynomial():
    # Degrees up to 11, the eliminant's, also at or above q; zero
    # coefficients mod q at either end, and the zero polynomial.
    given, settings, st = hypothesis_api(max_examples=150)

    @settings
    @given(st.sampled_from([5, 7, 11, 31, 1009]), st.data())
    def check(q, data):
        entry = st.integers(-2 * q, 2 * q)
        zeros = st.lists(st.sampled_from([0, q, -q]), max_size=3)
        coeffs = data.draw(zeros) + data.draw(st.lists(entry, max_size=6)) + data.draw(zeros)
        assert curve._roots_mod(coeffs, q) == roots_by_scan(coeffs, q)

    check()
    rng = random.Random(29)
    q = 65521
    randoms = [[rng.randrange(-(q ** 2), q ** 2) for _ in range(d + 1)] for d in (1, 4, 11)]
    # psi3 of (-3, 2) and (-5, 1) on residues, as three_torsion_flexes reads it.
    psi3s = [[-b * b, 0, 6 * b, 4 * a, 3] for a, b in [(-3 % q, 2), (-5 % q, 1)]]
    for coeffs in randoms + psi3s:
        assert curve._roots_mod(coeffs, q) == roots_by_scan(coeffs, q)
    # A product of distinct linear factors: its roots are known.
    coeffs = [1]
    for r in (0, 3, 77, 65520):
        coeffs = [x - r * y for x, y in zip([0] + coeffs, coeffs + [0])]
    assert curve._roots_mod(coeffs, q) == roots_by_scan(coeffs, q) == [0, 3, 77, 65520]


def test_three_torsion_points_are_hessian_flexes():
    # (1, +-2) has order 3 on y^2 = x^3 - 2x^2 + 5x over Q, so it stays in
    # E[3] mod 101: the curve's own cubic must be inflected there.
    params = reduce_params(validate_curve(-2, 5), 101)
    form = weierstrass_form(params)
    tor3 = three_torsion_flexes(params)
    assert [str(q) for q in tor3] == ["[0:1:0]", "[1:2:1]", "[1:99:1]"]
    for q in tor3:
        assert is_flex(form, q.coords)
    # Finite-field case: flexes of the Weierstrass cubic = 3-torsion, exactly.
    from chordcubic.chord import normalize_mod_p

    for a, b, p in [(-3, 2, 7), (-6, -3, 101), (0, -1, 5)]:
        pp = reduce_params(validate_curve(a, b), p)
        flex_set = set(find_flexes_over_Fp(weierstrass_form(pp), p))
        tor3 = {
            normalize_mod_p([c.value for c in q.coords], p)
            for q in three_torsion_flexes(pp, p)
        }
        assert flex_set == tor3


def test_point_order():
    params = reduce_params(validate_curve(0, 4), 101)
    assert point_order(CurvePoint.infinity(params)) == 1
    assert point_order(beta(params)) == 2
    assert point_order(CurvePoint.affine(params, 2, 4)) == 4


def test_point_order_over_Fp_is_not_bounded_by_mazur():
    # (2, 2) has infinite order on y^2 = x^3 - 2x over Q; mod 101 it
    # generates E(F_101), of order 122, above the rational bound of 12.
    params = reduce_params(validate_curve(0, -2), 101)
    q = CurvePoint.affine(params, 2, 2)
    assert point_order(q) == 122 == len(enumerate_points(params, 101))
    assert scalar_mul(122, q).is_infinity
    assert not any(scalar_mul(d, q).is_infinity for d in (1, 2, 61))
    # E(F_23) is cyclic of order 24 here.
    params = reduce_params(validate_curve(0, 4), 23)
    assert max(point_order(q) for q in enumerate_points(params, 23)) == 24
