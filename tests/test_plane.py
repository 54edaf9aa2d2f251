import random
from fractions import Fraction

import pytest

from chordcubic.chord import (
    DualPoint,
    TernaryForm,
    chord_cubic,
    chord_map,
    normalize_triple,
    weierstrass_form,
)
from chordcubic.curve import CurvePoint, reduce_params, validate_curve
from chordcubic.plane import (
    IntersectionRecord,
    MinDegree,
    _rank_mod_p,
    _zero_points_over_Fp,
    _zero_points_scan,
    count_zero_points_over_Fp,
    dual_incidence,
    evaluate_form,
    find_flexes_over_Fp,
    form_mod_p,
    hessian_cubic,
    is_flex,
    line_cubic_intersection,
    min_interpolating_degree,
    monomials,
    smooth_over_Fp,
)
from chordcubic.scalars import PrimeField, is_prime

PRIMES_BELOW_200 = [p for p in range(5, 200) if is_prime(p)]


def _fermat() -> TernaryForm:
    return TernaryForm(3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})


def _triangle() -> TernaryForm:
    return TernaryForm(3, {(1, 1, 1): 1})


def test_evaluate_form_examples():
    assert evaluate_form(TernaryForm.monomial(0, 0, 3, 1), (0, 1, 0)) == 0
    assert evaluate_form(_fermat(), (1, 1, 1)) == 3
    cubic = chord_cubic(validate_curve(-3, 2))
    image = chord_map(CurvePoint.affine(validate_curve(-3, 2), 2, 0))
    assert image == DualPoint((0, 1, 0))
    assert evaluate_form(cubic, image.coords) == 0


def test_hessian_examples():
    assert hessian_cubic(_triangle()).coeffs == {(1, 1, 1): 2}
    assert hessian_cubic(_fermat()).coeffs == {(1, 1, 1): 216}
    with pytest.raises(ValueError):
        hessian_cubic(TernaryForm.monomial(1, 1, 0, 1))


def test_hessian_scales_cubically():
    rng = random.Random(31)
    for _ in range(5):
        coeffs = {
            key: Fraction(rng.randrange(-5, 6))
            for key in monomials(3)
            if rng.random() < 0.6
        }
        coeffs[(3, 0, 0)] = Fraction(rng.randrange(1, 5))
        form = TernaryForm(3, coeffs)
        lam = Fraction(rng.randrange(2, 7))
        assert hessian_cubic(lam * form) == (lam ** 3) * hessian_cubic(form)


def test_hessian_of_chord_cubic_at_zero_flex():
    cubic = chord_cubic(validate_curve(-3, 2))
    assert evaluate_form(hessian_cubic(cubic), (0, 1, 0)) == 0
    assert evaluate_form(hessian_cubic(cubic), (1, 0, 0)) == -256


def test_is_flex_examples():
    assert is_flex(_fermat(), (0, 1, -1))
    cubic = chord_cubic(validate_curve(-3, 2))
    assert is_flex(cubic, (0, 1, 0))
    assert not is_flex(cubic, (1, 0, 0))
    with pytest.raises(ValueError):
        is_flex(cubic, (1, 1, 1))


def test_singular_point_is_not_a_flex():
    # [1:0:0] is a singular point of the coordinate triangle UVW.
    assert not is_flex(_triangle(), (1, 0, 0))


def test_line_cubic_intersection_triple_contact():
    # The flex tangent of the image cubic at [0:1:0] is 2bU - aW = 0.
    for a, b in [(-3, 2), (3, 1), (0, 1)]:
        cubic = chord_cubic(validate_curve(a, b))
        records = line_cubic_intersection(cubic, DualPoint((2 * b, 0, -a)))
        assert records == [IntersectionRecord((Fraction(0), Fraction(1), Fraction(0)), 3)]


def test_line_cubic_intersection_splitting():
    cubic = chord_cubic(validate_curve(-3, 2))
    # Restricting to V = 0 gives W (2U^2 - W^2): one rational point plus a
    # conjugate pair that only becomes rational mod 7.
    over_q = line_cubic_intersection(cubic, DualPoint((0, 1, 0)))
    assert [(tuple(map(str, r.point)), r.multiplicity) for r in over_q] == [
        (("1", "0", "0"), 1)
    ]
    cubic7 = chord_cubic(reduce_params(validate_curve(-3, 2), 7))
    field = PrimeField(7)
    over_f7 = line_cubic_intersection(cubic7, DualPoint((field(0), field(1), field(0))))
    assert sum(r.multiplicity for r in over_f7) == 3
    assert len(over_f7) == 3


def test_line_cubic_intersection_three_distinct():
    field = PrimeField(7)
    fermat = TernaryForm(3, {(3, 0, 0): field(1), (0, 3, 0): field(1), (0, 0, 3): field(1)})
    records = line_cubic_intersection(fermat, DualPoint((field(0), field(0), field(1))))
    assert len(records) == 3
    assert all(r.multiplicity == 1 for r in records)


def test_line_cubic_intersection_degenerate():
    reducible = TernaryForm(3, {(2, 1, 0): 1, (0, 3, 0): 1, (0, 1, 2): 1})  # V*(U^2+V^2+W^2)
    with pytest.raises(ValueError):
        line_cubic_intersection(reducible, DualPoint((0, 1, 0)))


def test_multiplicities_never_exceed_degree():
    rng = random.Random(4)
    cubic = chord_cubic(reduce_params(validate_curve(-3, 2), 101))
    field = PrimeField(101)
    for _ in range(10):
        line = DualPoint(
            (field(rng.randrange(101)), field(rng.randrange(101)), field(1))
        )
        records = line_cubic_intersection(cubic, line)
        assert sum(r.multiplicity for r in records) <= 3


def test_flex_tangents_meet_only_at_the_flex():
    cubic = chord_cubic(reduce_params(validate_curve(-3, 2), 7))
    grads = [cubic.partial(i) for i in range(3)]
    for pt in find_flexes_over_Fp(cubic, 7):
        tangent = DualPoint(tuple(g.evaluate(pt) for g in grads))
        records = line_cubic_intersection(cubic, tangent)
        assert records == [IntersectionRecord(pt, 3)]


def test_find_flexes_over_Fp():
    cubic = chord_cubic(validate_curve(-3, 2))
    field = PrimeField(7)
    flexes = find_flexes_over_Fp(cubic, 7)
    assert (field(0), field(1), field(0)) in flexes
    assert len(flexes) <= 9
    weier = weierstrass_form(reduce_params(validate_curve(-3, 2), 101))
    assert len(find_flexes_over_Fp(weier, 101)) <= 9


def test_smooth_over_Fp():
    assert smooth_over_Fp(chord_cubic(validate_curve(-3, 2)), 7)
    assert not smooth_over_Fp(_triangle(), 7)
    assert smooth_over_Fp(weierstrass_form(validate_curve(-3, 2)), 101)


def test_count_zero_points_matches_enumeration():
    from chordcubic.curve import enumerate_points

    for a, b, p in [(-3, 2, 7), (0, -1, 5), (0, 4, 101)]:
        params = reduce_params(validate_curve(a, b), p)
        count = count_zero_points_over_Fp(weierstrass_form(params), p)
        assert count == len(enumerate_points(params, p))


def test_min_interpolating_degree_line():
    pts = [(0, 1, 0), (0, 0, 1), (0, 1, 1)]
    assert min_interpolating_degree(pts) == MinDegree(1, 1)


def test_min_interpolating_degree_exceeds_dmax():
    with pytest.raises(ValueError):
        min_interpolating_degree([(1, 0, 0)], dmax=9)
    pts = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert min_interpolating_degree(pts, dmax=1) is None


def test_min_interpolating_degree_requires_distinct_points():
    with pytest.raises(ValueError):
        min_interpolating_degree([(1, 0, 0), (2, 0, 0)])
    f5 = PrimeField(5)
    with pytest.raises(ValueError, match="distinct"):
        min_interpolating_degree([(f5(1), f5(2), f5(0)), (f5(3), f5(1), f5(0))])
    with pytest.raises(ValueError, match="one field"):
        min_interpolating_degree([(f5(1), f5(0), f5(0)), (0, 1, 0)])
    with pytest.raises(ValueError, match="vanish"):
        min_interpolating_degree([(f5(0), f5(0), f5(0))])


def test_min_interpolating_degree_of_chord_image():
    from chordcubic.curve import enumerate_points

    params = reduce_params(validate_curve(-3, 2), 101)
    image = {chord_map(q) for q in enumerate_points(params, 101)}
    found = min_interpolating_degree([line.coords for line in image])
    assert found == MinDegree(3, 1)


def test_min_interpolating_degree_is_monotone():
    from chordcubic.curve import enumerate_points

    params = reduce_params(validate_curve(-3, 2), 101)
    image = [chord_map(q) for q in enumerate_points(params, 101)]
    seen = []
    for line in image:
        if line not in seen:
            seen.append(line)
    results = []
    for size in (4, 8, 16, 32, len(seen)):
        found = min_interpolating_degree([line.coords for line in seen[:size]])
        results.append(found.degree if found else 9)
    assert results == sorted(results)


def test_dual_incidence_examples():
    assert dual_incidence((0, 1, 0), DualPoint((1, 0, 0)))
    assert dual_incidence((2, 4, 1), DualPoint((1, 0, -2)))
    assert not dual_incidence((1, 1, 1), DualPoint((1, 0, 0)))


def test_monomials_shape():
    assert monomials(1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert len(monomials(3)) == 10
    assert len(monomials(6)) == 28
    assert all(sum(m) == 6 for m in monomials(6))


def _hypothesis():
    """given, a settings decorator and the strategies module, or skip."""
    hypothesis = pytest.importorskip("hypothesis")
    settings = hypothesis.settings(max_examples=40, deadline=None)
    return hypothesis.given, settings, hypothesis.strategies


def _curves(st):
    """Random valid (a, b, p): b (a^2 - 4b) != 0 mod p, 3 < p < 200."""

    @st.composite
    def draw_curve(draw):
        p = draw(st.sampled_from(PRIMES_BELOW_200))
        a = draw(st.integers(0, p - 1))
        b = draw(st.integers(1, p - 1).filter(lambda b: (a * a - 4 * b) % p))
        return a, b, p

    return draw_curve()


def _forms_with_a_quadratic_axis(st):
    """Random (form, p) of degree 1 to 3, of degree <= 2 in some coordinate.

    A cubic loses the cube of a drawn axis and keeps the other two cubes, so
    the sweep runs along that axis; every axis is drawn.
    """

    @st.composite
    def draw_form(draw):
        p = draw(st.sampled_from(PRIMES_BELOW_200))
        degree = draw(st.integers(1, 3))
        axis = draw(st.integers(0, 2))
        coeffs = {key: draw(st.integers(0, p - 1)) for key in monomials(degree)}
        if degree == 3:
            for m in range(3):
                cube = tuple(3 if i == m else 0 for i in range(3))
                coeffs[cube] = 0 if m == axis else draw(st.integers(1, p - 1))
        return TernaryForm(degree, coeffs), p

    return draw_form()


def _sweep_matches_scan(form, p):
    swept = sorted(_zero_points_over_Fp(form, p))
    assert swept == sorted(_zero_points_scan(form, p))


def _flexes_by_scan(form, p):
    """The flexes found by testing every point of the plane: the oracle."""
    form = form_mod_p(form, p)
    field = PrimeField(p)
    grads = [form.partial(i) for i in range(3)]
    hess = hessian_cubic(form)
    flexes = []
    for pt in _zero_points_scan(form, p):
        coords = tuple(field(c) for c in pt)
        if all(g.evaluate(coords) == 0 for g in grads):
            continue
        if hess.evaluate(coords) == 0:
            flexes.append(coords)
    return flexes


def test_sweep_matches_scan_on_the_curve_and_its_image():
    given, settings, st = _hypothesis()

    @settings
    @given(_curves(st))
    def check(curve):
        a, b, p = curve
        pp = reduce_params(validate_curve(a, b), p)
        _sweep_matches_scan(chord_cubic(pp), p)
        _sweep_matches_scan(weierstrass_form(pp), p)

    check()


def test_sweep_matches_scan_on_random_forms():
    given, settings, st = _hypothesis()

    @settings
    @given(_forms_with_a_quadratic_axis(st))
    def check(form_p):
        _sweep_matches_scan(*form_p)

    check()


def test_sweep_matches_scan_on_curves_with_lines_and_without_an_axis():
    # UVW contains the three coordinate lines, so whole pencil lines vanish;
    # the Fermat cubic is cubic in every coordinate and takes the fallback.
    given, settings, st = _hypothesis()

    @settings
    @given(st.sampled_from(PRIMES_BELOW_200))
    def check(p):
        assert count_zero_points_over_Fp(_triangle(), p) == 3 * p
        _sweep_matches_scan(_triangle(), p)
        _sweep_matches_scan(_fermat(), p)

    check()


def test_flexes_match_the_scan_in_scan_order():
    given, settings, st = _hypothesis()

    @settings
    @given(_curves(st), _forms_with_a_quadratic_axis(st))
    def check(curve, form_p):
        a, b, p = curve
        pp = reduce_params(validate_curve(a, b), p)
        cases = [(chord_cubic(pp), p), (weierstrass_form(pp), p), (_fermat(), p)]
        if form_p[0].degree == 3:
            cases.append(form_p)
        for cubic, q in cases:
            assert find_flexes_over_Fp(cubic, q) == _flexes_by_scan(cubic, q)

    check()


def test_image_count_at_the_largest_prime_matches_euler_criterion():
    # The image cubic is the quotient by beta, so it has #E(F_p) points.
    p, a, b = 65521, -3, 2
    count = 1 + sum(
        1 + (0 if f % p == 0 else 1 if pow(f, (p - 1) // 2, p) == 1 else -1)
        for f in (x * x * x + a * x * x + b * x for x in range(p))
    )
    pp = reduce_params(validate_curve(a, b), p)
    assert count_zero_points_over_Fp(chord_cubic(pp), p) == count


def _gauss_jordan_rank(mat, p):
    """Rank mod p by a full Gauss-Jordan pass: the oracle for _rank_mod_p."""
    mat = [list(row) for row in mat]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] % p), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [v * inv % p for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] % p:
                factor = mat[r][col]
                mat[r] = [(v - factor * w) % p for v, w in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _min_degree_by_scalar_rows(points, p, dmax):
    """Minimal degree from monomial rows of F_p scalars: the oracle."""
    normalized = [normalize_triple(pt) for pt in points]
    for d in range(1, dmax + 1):
        mons = monomials(d)
        rows = [
            [(t[0] ** i * t[1] ** j * t[2] ** k).value for (i, j, k) in mons]
            for t in normalized
        ]
        nullity = len(mons) - _gauss_jordan_rank(rows, p)
        if nullity > 0:
            return MinDegree(d, nullity)
    return None


def test_interpolation_on_ints_matches_scalar_rows():
    given, settings, st = _hypothesis()

    @st.composite
    def point_sets(draw):
        # Small coordinates put many points on common lines and conics.
        p = draw(st.sampled_from(PRIMES_BELOW_200))
        field = PrimeField(p)
        coord = st.integers(0, draw(st.sampled_from([1, 2, 4, p - 1])))
        triples = draw(
            st.lists(
                st.tuples(coord, coord, coord).filter(any).map(lambda t: tuple(map(field, t))),
                max_size=60,
                unique_by=normalize_triple,
            )
        )
        return triples, p

    @settings
    @given(point_sets(), st.integers(1, 8))
    def check(points_p, dmax):
        points, p = points_p
        expected = _min_degree_by_scalar_rows(points, p, dmax)
        assert min_interpolating_degree(points, dmax=dmax) == expected

    check()


def test_row_echelon_rank_matches_gauss_jordan():
    given, settings, st = _hypothesis()

    @st.composite
    def matrices(draw):
        # Rows are small combinations of a few drawn rows, so that the rank
        # often falls short of full; a coefficient p leaves entries that are
        # nonzero ints but zero mod p.
        p = draw(st.sampled_from(PRIMES_BELOW_200))
        cols = draw(st.integers(1, 12))
        row = st.lists(st.integers(-(10 ** 6), 10 ** 6), min_size=cols, max_size=cols)
        basis = draw(st.lists(row, max_size=cols))
        mat = []
        for _ in range(draw(st.integers(0, 12))):
            coeffs = [draw(st.integers(-3, 3) | st.just(p)) for _ in basis]
            mat.append([sum(c * b[m] for c, b in zip(coeffs, basis)) for m in range(cols)])
        return mat, p

    @settings
    @given(matrices())
    def check(mat_p):
        mat, p = mat_p
        assert _rank_mod_p(mat, p) == _gauss_jordan_rank(mat, p)

    check()
