import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chordcubic import plane, scalars
from chordcubic.chord import (
    DualPoint,
    TernaryForm,
    chord_cubic,
    chord_cubic_generic,
    chord_map,
    normalize_mod_p,
    normalize_triple,
    weierstrass_form,
)
from chordcubic.curve import CurvePoint, reduce_params, validate_curve
from chordcubic.plane import (
    MinDegree,
    _rank_and_kernel_mod_p,
    _zero_points_over_Fp,
    count_zero_points_over_Fp,
    evaluate_form,
    find_flexes_over_Fp,
    hessian_cubic,
    is_flex,
    min_interpolating_degree,
    monomials,
    smooth_over_Fp,
)
from chordcubic.poly import A, B
from chordcubic.scalars import PrimeField, horner
from fp_strategies import PRIMES_BELOW_200, curves
from oracles import (
    count_by_euler,
    dual_incidence,
    flexes_by_sweep,
    roots_by_scan,
    smooth_by_sweep,
    zero_points_by_scan,
)


def _fermat() -> TernaryForm:
    return TernaryForm(3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})


def _triangle() -> TernaryForm:
    return TernaryForm(3, {(1, 1, 1): 1})


def test_evaluate_form_examples():
    assert evaluate_form(TernaryForm(3, {(0, 0, 3): 1}), (0, 1, 0)) == 0
    assert evaluate_form(_fermat(), (1, 1, 1)) == 3
    cubic = chord_cubic(validate_curve(-3, 2))
    image = chord_map(CurvePoint.affine(validate_curve(-3, 2), 2, 0))
    assert image == DualPoint((0, 1, 0))
    assert evaluate_form(cubic, image.coords) == 0


def test_hessian_examples():
    assert hessian_cubic(_triangle()).coeffs == {(1, 1, 1): 2}
    assert hessian_cubic(_fermat()).coeffs == {(1, 1, 1): 216}
    with pytest.raises(ValueError):
        hessian_cubic(TernaryForm(2, {(1, 1, 0): 1}))


def test_hessian_scales_cubically():
    rng = random.Random(31)
    for _ in range(5):
        coeffs = {
            key: Fraction(rng.randrange(-5, 6))
            for key in monomials(3)
            if rng.random() < 0.6
        }
        coeffs[(3, 0, 0)] = Fraction(rng.randrange(1, 5))
        lam = Fraction(rng.randrange(2, 7))
        scaled = TernaryForm(3, {key: lam * c for key, c in coeffs.items()})
        hessian = hessian_cubic(TernaryForm(3, coeffs)).coeffs
        assert hessian_cubic(scaled).coeffs == {key: lam ** 3 * c for key, c in hessian.items()}


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


@st.composite
def _cubics_and_points(draw):
    """A random, Fermat or image cubic over F_p or Q, and a point of small integers."""
    a, b, p = draw(curves())
    over_q = draw(st.booleans())
    field = Fraction if over_q else PrimeField(p)
    kind = draw(st.sampled_from(["random", "fermat", "image"]))
    if kind == "image":
        params = validate_curve(a, b)
        form = chord_cubic(params if over_q else reduce_params(params, p))
    else:
        values = st.fractions(-9, 9, max_denominator=5) if over_q else st.integers(0, p - 1)
        coeffs = (
            _fermat().coeffs
            if kind == "fermat"
            else {key: draw(values) for key in monomials(3)}
        )
        form = TernaryForm(3, {key: field(c) for key, c in coeffs.items()})
    pt = tuple(field(draw(st.integers(-50, 50))) for _ in range(3))
    return form, pt


@settings(max_examples=100, deadline=None)
@given(_cubics_and_points())
def test_hessian_matches_the_pointwise_determinant(case):
    # The oracle evaluates the second partials at the point first and takes
    # the determinant of those values, so it does no arithmetic on forms.
    form, pt = case
    second = [[form.partial(i).partial(j).evaluate(pt) for j in range(3)] for i in range(3)]
    assert hessian_cubic(form).evaluate(pt) == _det3(second)


def test_hessian_of_the_generic_image_cubic():
    # With MultiPoly coefficients in a and b: the Hessian that the flex
    # identity of the image cubic starts from.
    hessian = hessian_cubic(chord_cubic_generic(A, B))
    assert hessian.coeffs == {
        (3, 0, 0): -1024 * B ** 7,
        (2, 0, 1): 512 * A * B ** 6,
        (1, 2, 0): -2048 * A * B ** 7,
        (1, 0, 2): -3072 * B ** 6,
        (0, 2, 1): 6144 * B ** 7 - 512 * A ** 2 * B ** 6,
        (0, 0, 3): 1536 * A * B ** 5,
    }


def test_hessian_of_chord_cubic_at_zero_flex():
    cubic = chord_cubic(validate_curve(-3, 2))
    assert evaluate_form(hessian_cubic(cubic), (0, 1, 0)) == 0
    assert evaluate_form(hessian_cubic(cubic), (1, 0, 0)) == -256


def test_is_flex_examples():
    assert is_flex(_fermat(), (0, 1, -1))
    cubic = chord_cubic(validate_curve(-3, 2))
    assert is_flex(cubic, (0, 1, 0))
    assert not is_flex(cubic, (1, 0, 0))
    off_curve = r"^point \[1:1:1\] is not on the curve$"
    with pytest.raises(ValueError, match=off_curve):
        is_flex(cubic, (Fraction(1), 1, 1))
    fp_cubic = chord_cubic(reduce_params(validate_curve(-3, 2), 101))
    with pytest.raises(ValueError, match=off_curve):
        is_flex(fp_cubic, _fp_triples([(1, 1, 1)], 101)[0])


def test_singular_point_is_not_a_flex():
    # [1:0:0] is a singular point of the coordinate triangle UVW.
    assert not is_flex(_triangle(), (1, 0, 0))


def test_line_cubic_intersection_triple_contact():
    # The flex tangent of the image cubic at [0:1:0] is 2bU - aW = 0.
    for a, b in [(-3, 2), (3, 1), (0, 1)]:
        cubic = chord_cubic(validate_curve(a, b))
        grad = tuple(cubic.partial(i).evaluate((0, 1, 0)) for i in range(3))
        assert normalize_triple(grad) == normalize_triple((2 * b, 0, -a))
        assert is_flex(cubic, (0, 1, 0))


def test_flex_tangents_meet_only_at_the_flex():
    cubic = chord_cubic(reduce_params(validate_curve(-3, 2), 7))
    grads = [cubic.partial(i) for i in range(3)]
    zeros = list(zero_points_by_scan(cubic, 7))
    flexes = find_flexes_over_Fp(cubic, 7)
    assert flexes
    for pt in flexes:
        tangent = DualPoint(tuple(g.evaluate(pt) for g in grads))
        on_tangent = [z for z in zeros if dual_incidence(z, tangent)]
        assert on_tangent == [pt]


def test_find_flexes_over_Fp():
    cubic = chord_cubic(validate_curve(-3, 2))
    flexes = find_flexes_over_Fp(cubic, 7)
    assert (0, 1, 0) in flexes
    assert flexes == sorted(flexes)
    assert all(type(c) is int for pt in flexes for c in pt)
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


def _fp_triples(triples, p):
    field = PrimeField(p)
    return [tuple(field(c) for c in t) for t in triples]


def test_min_interpolating_degree_line():
    pts = _fp_triples([(0, 1, 0), (0, 0, 1), (0, 1, 1)], 7)
    assert min_interpolating_degree(pts, p=7) == MinDegree(1, 1, (1, 0, 0))
    assert min_interpolating_degree([], p=7) == MinDegree(1, 3)
    # The modulus is refused even when no coordinate is read.
    with pytest.raises(ValueError, match="got 4"):
        min_interpolating_degree([], p=4)
    with pytest.raises(ValueError, match="first must be a degree from 1 to 8, got 9"):
        min_interpolating_degree(pts, p=7, first=9)


def test_min_interpolating_degree_exceeds_dmax():
    # The forms vanishing on all of P^2(F_q) are generated in degree q + 1,
    # so at q = 11 no degree up to the cap of 8 interpolates its 133 points.
    p = 11
    plane = [(1, v, w) for v in range(p) for w in range(p)]
    plane += [(0, 1, w) for w in range(p)] + [(0, 0, 1)]
    assert len(plane) == 133
    assert min_interpolating_degree(plane, p=p) is None


def _read_by_hand(points, p):
    """Each point read into F_p, normalized and given back as an int triple."""
    field = PrimeField(p)
    return [tuple(c.value for c in normalize_triple(tuple(map(field, pt)))) for pt in points]


def _outcome(call):
    """What a call returns, or the type and message of the ValueError it raises."""
    try:
        return call()
    except ValueError as exc:
        return type(exc), str(exc)


# Five points on one conic and on no line: nullity 1 at degree 2 mod 11.
CONIC = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 7)]

# Inputs at p = 11 with the error their reading raises, or None when they
# read as CONIC.  Only the first is already normalized int triples.
READINGS = {
    "normalized ints": (CONIC, None),
    "F_p scalars": (_fp_triples(CONIC, 11), None),
    "multiples": ([tuple(k * c - 11 for c in t) for k, t in enumerate(CONIC, start=2)], None),
    "a list for a tuple": ([list(CONIC[0]), *CONIC[1:]], None),
    "a bool": ([(True, 0, 0), *CONIC[1:]], "cannot coerce True into F_11"),
    "an int >= p": ([CONIC[0], (0, 12, 0), *CONIC[2:]], None),
    "a negative int": ([*CONIC[:4], (1, 2, -4)], None),
    "unnormalized residues": ([*CONIC[:4], (2, 4, 3)], None),
    "a zero triple": ([*CONIC, (0, 0, 0)], "projective coordinates must not all vanish"),
    "a projective duplicate": ([*CONIC, (2, 4, 3)], "interpolation points must be distinct"),
    "a foreign scalar": ([(PrimeField(7)(1), 0, 0), *CONIC[1:]], "scalar mod 7 is not in F_11"),
}


def test_min_interpolating_degree_reads_coordinates_mod_p():
    # Given as a list or as a generator, the points give the result or the
    # error of reading each one into F_p by hand; normalized int triples
    # are taken as they are.
    p = 11
    conic = _min_degree_by_scalar_rows(_fp_triples(CONIC, p), p)
    assert conic[:2] == (2, 1) and conic.kernel is not None
    for name, (points, error) in READINGS.items():
        by_hand = _outcome(lambda: min_interpolating_degree(_read_by_hand(points, p), p=p))
        assert by_hand == ((ValueError, error) if error else conic), name
        assert _outcome(lambda: min_interpolating_degree(points, p=p)) == by_hand, name
        generated = (pt for pt in points)
        assert _outcome(lambda: min_interpolating_degree(generated, p=p)) == by_hand, name


def test_min_interpolating_degree_requires_distinct_points():
    f5 = PrimeField(5)
    with pytest.raises(ValueError):
        min_interpolating_degree([(f5(1), f5(0), f5(0)), (f5(2), f5(0), f5(0))], p=5)
    with pytest.raises(ValueError, match="distinct"):
        min_interpolating_degree([(f5(1), f5(2), f5(0)), (f5(3), f5(1), f5(0))], p=5)
    with pytest.raises(ValueError, match="vanish"):
        min_interpolating_degree([(f5(0), f5(0), f5(0))], p=5)


def test_min_interpolating_degree_of_chord_image():
    from chordcubic.curve import enumerate_points

    params = reduce_params(validate_curve(-3, 2), 101)
    image = {chord_map(q) for q in enumerate_points(params, 101)}
    found = min_interpolating_degree([line.coords for line in image], p=101)
    assert found[:2] == (3, 1)


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
        found = min_interpolating_degree([line.coords for line in seen[:size]], p=101)
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


@st.composite
def _forms_with_a_quadratic_axis(draw):
    """Random (form, p) of degree 1 to 3, of degree <= 2 in some coordinate.

    A cubic loses the cube of a drawn axis and keeps the other two cubes, so
    the sweep runs along that axis; every axis is drawn.
    """
    p = draw(st.sampled_from(PRIMES_BELOW_200))
    degree = draw(st.integers(1, 3))
    axis = draw(st.integers(0, 2))
    coeffs = {key: draw(st.integers(0, p - 1)) for key in monomials(degree)}
    if degree == 3:
        for m in range(3):
            cube = tuple(3 if i == m else 0 for i in range(3))
            coeffs[cube] = 0 if m == axis else draw(st.integers(1, p - 1))
    return TernaryForm(degree, coeffs), p


def _sweep_matches_scan(form, p):
    swept = sorted(_zero_points_over_Fp(form, p))
    assert swept == sorted(zero_points_by_scan(form, p))


def _scan_oracle(form, p):
    """The zeros, singular zeros and flexes found by testing every point of the plane.

    The form is coerced into F_p here and tested on scalars; each list holds
    the scan's int triples, in scan order.  Flexes are sought on cubics only.
    """
    field = PrimeField(p)
    form = TernaryForm(form.degree, {k: field(c) for k, c in form.coeffs.items()})
    grads = [form.partial(i) for i in range(3)]
    hess = hessian_cubic(form) if form.degree == 3 else None
    zeros, singular, flexes = [], [], []
    for pt in zero_points_by_scan(form, p):
        coords = tuple(field(c) for c in pt)
        zeros.append(pt)
        if all(g.evaluate(coords) == 0 for g in grads):
            singular.append(pt)
        elif hess is not None and hess.evaluate(coords) == 0:
            flexes.append(pt)
    return zeros, singular, flexes


@settings(max_examples=40, deadline=None)
@given(curves())
def test_sweep_matches_scan_on_the_curve_and_its_image(curve):
    a, b, p = curve
    pp = reduce_params(validate_curve(a, b), p)
    _sweep_matches_scan(chord_cubic(pp), p)
    _sweep_matches_scan(weierstrass_form(pp), p)


@settings(max_examples=40, deadline=None)
@given(_forms_with_a_quadratic_axis())
def test_sweep_matches_scan_on_random_forms(form_p):
    _sweep_matches_scan(*form_p)


@st.composite
def _forms_cubic_in_every_axis(draw):
    """Random (form, p) of degree at least 3 in every coordinate mod p.

    Half are cubics with a nonzero cube of every coordinate.  The other half
    are a line of the pencil through the vertex (0, 1, 0) times such a
    cubic: a quartic of degree 3 in V (a pencil line has no V, so a pencil
    line times a conic would have no V^3) that contains the pencil line, on
    which its restriction is the zero polynomial, and the vertex.
    """
    p = draw(st.sampled_from(PRIMES_BELOW_200))
    residue, unit = st.integers(0, p - 1), st.integers(1, p - 1)
    cubic = {key: draw(residue) for key in monomials(3)}
    for cube in [(3, 0, 0), (0, 3, 0), (0, 0, 3)]:
        cubic[cube] = draw(unit)
    if draw(st.booleans()):
        return TernaryForm(3, cubic), p
    u, w = draw(st.tuples(residue, residue).filter(any))
    return TernaryForm(4, _times({(1, 0, 0): u, (0, 0, 1): w}, cubic)), p


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PRIMES_BELOW_200), _forms_cubic_in_every_axis())
def test_sweep_matches_scan_on_curves_with_lines_and_without_an_axis(p, form_q):
    # UVW contains the three coordinate lines, so whole pencil lines vanish;
    # the Fermat cubic and the random forms are cubic in every coordinate,
    # so each pencil line is solved by a root scan of a cubic in z.
    assert count_zero_points_over_Fp(_triangle(), p) == 3 * p
    _sweep_matches_scan(_triangle(), p)
    _sweep_matches_scan(_fermat(), p)
    form, q = form_q
    table = plane._reduced(form, q).coeffs
    assert min(plane._degree_along(table, z) for z in range(3)) >= 3
    assert plane._pencil_axis(table) == 1
    zeros, singular, flexes = _scan_oracle(form, q)
    assert sorted(_zero_points_over_Fp(form, q)) == sorted(zeros)
    assert count_zero_points_over_Fp(form, q) == len(zeros)
    assert smooth_by_sweep(form, q) == (not singular)
    if form.degree == 3:
        assert find_flexes_over_Fp(form, q) == sorted(flexes)


def test_the_scan_is_an_oracle_only():
    assert not hasattr(plane, "_zero_points_scan")
    assert not hasattr(plane, "_chart_tables")


@settings(max_examples=40, deadline=None)
@given(curves(), _forms_with_a_quadratic_axis())
def test_flexes_match_the_sorted_scan(curve, form_p):
    a, b, p = curve
    pp = reduce_params(validate_curve(a, b), p)
    cases = [(chord_cubic(pp), p), (weierstrass_form(pp), p), (_fermat(), p)]
    if form_p[0].degree == 3:
        cases.append(form_p)
    for cubic, q in cases:
        assert find_flexes_over_Fp(cubic, q) == sorted(_scan_oracle(cubic, q)[2])


@settings(max_examples=40, deadline=None)
@given(curves())
def test_sweeps_agree_on_a_rational_form_and_its_reduction(curve):
    a, b, p = curve
    params = validate_curve(a, b)
    rational, reduced = chord_cubic(params), chord_cubic(reduce_params(params, p))
    for sweep in (count_zero_points_over_Fp, smooth_over_Fp, find_flexes_over_Fp):
        assert sweep(rational, p) == sweep(reduced, p)


def test_sweep_skips_only_lines_without_a_zero(monkeypatch):
    # Along V, F = c2 V^2 + c1 V + c0 on the line (U, W) = (1, t).  The
    # first form has c2(2) = 0 and c1(2) = 1: one zero on that line, whose
    # discriminant c1^2 is a square.  The second contains the pencil line
    # W = 3U (every z is a zero there).  Lines with a nonsquare
    # discriminant are skipped, and no zero is lost or repeated.  A line is
    # solved either in the batch of the lines with c2(t) != 0 or on its own.
    conic = {(0, 2, 0): 1, (1, 0, 1): 1, (2, 0, 0): 1}
    forms = {
        "c2 vanishes": TernaryForm(
            3, {(0, 2, 1): 1, (1, 2, 0): -2, (2, 1, 0): 1, (3, 0, 0): 1, (0, 0, 3): -1}
        ),
        "pencil line": TernaryForm(3, _times({(0, 0, 1): 1, (1, 0, 0): -3}, conic)),
    }
    solved = []
    solve, batch = plane._quadratic_zeros, plane._quadratics_solved
    monkeypatch.setattr(plane, "_quadratic_zeros", lambda *c: solved.append(c) or solve(*c))
    monkeypatch.setattr(plane, "_quadratics_solved", lambda q, h, p: solved.extend(q) or batch(q, h, p))
    skipped = 0
    for p in (5, 7, 11, 31, 101):
        for name, form in forms.items():
            assert plane._pencil_axis(plane._reduced(form, p).coeffs) == 1
            solved.clear()
            swept = list(_zero_points_over_Fp(form, p))
            scanned = list(zero_points_by_scan(form, p))
            assert len(swept) == len(scanned) == len(set(swept)), (name, p)
            assert sorted(swept) == sorted(scanned), (name, p)
            line, zeros = (2, 1) if name == "c2 vanishes" else (3, p)
            assert sum(1 for pt in scanned if pt[0] == 1 and pt[2] == line) == zeros, (name, p)
            nonsquare = 0
            for t in range(p):
                c0, c1, c2 = _along_v(form, p, (1, t))
                nonsquare += pow(c1 * c1 - 4 * c0 * c2, (p - 1) // 2, p) == p - 1
            assert len(solved) == p + 1 - nonsquare, (name, p)  # the lines (1, t) and (0, 1)
            skipped += nonsquare
    assert skipped


def _along_v(form, p, rs):
    """(c0, c1, c2) mod p of the form c2 V^2 + c1 V + c0 on the pencil line (U, W) = rs."""
    u, w = rs
    form = plane._reduced(form, p)
    c0, f1, g1 = (evaluate_form(form, (u, z, w)) for z in (0, 1, -1))
    return c0 % p, (f1 - g1) // 2 % p, ((f1 + g1) // 2 - c0) % p


def test_sweep_of_G_inverts_once_and_solves_alone_only_lines_where_c2_vanishes(monkeypatch):
    # Along V, G = c2 V^2 + c1 V + c0 on the line (U, W) = (1, t).  Every line
    # with c2(t) != 0 is solved in one batch, from one inverses_mod_p call;
    # _quadratic_zeros sees only the lines with c2(t) = 0, then (0, 1).
    p = 1009
    g = chord_cubic(reduce_params(validate_curve(-3, 2), p))
    assert plane._pencil_axis(plane._reduced(g, p).coeffs) == 1
    inverted, alone = [], []
    invert, solve = plane.inverses_mod_p, plane._quadratic_zeros
    monkeypatch.setattr(plane, "inverses_mod_p", lambda v, q: inverted.append(len(v)) or invert(v, q))
    monkeypatch.setattr(plane, "_quadratic_zeros", lambda *c: alone.append(c) or solve(*c))
    swept = list(_zero_points_over_Fp(g, p))
    lines = [_along_v(g, p, (1, t)) for t in range(p)]
    expected = [(*c, p) for c in lines if c[2] == 0] + [(*_along_v(g, p, (0, 1)), p)]
    assert len(expected) == 2  # one t with c2(t) = 0
    assert alone == expected
    assert len(inverted) == 1 and 0 < inverted[0] < p
    assert len(swept) == len(set(swept)) == count_zero_points_over_Fp(g, p)


def _forms_of_degree_two_in_v(rng, p):
    """Random forms c2 V^2 + c1 V + c0, by name, of the shapes the batch solve must meet.

    c0, c1 and c2 are forms in U and W; c1 is 0 in G's shape.  c2 = W - t0 U
    vanishes on the line (1, t0); a pencil line times a conic lies on the
    curve; a form linear in V has c2 = 0 everywhere, so its batch is empty.
    """

    def uw(degree):
        return {(i, 0, degree - i): rng.randrange(p) for i in range(degree + 1)}

    def v_times(e, table):
        return {(i, j + e, k): c for (i, j, k), c in table.items()}

    t0 = rng.randrange(p)
    vanishing = {(1, 0, 0): -t0, (0, 0, 1): 1}
    conic = {key: rng.randrange(p) for key in monomials(2)}
    conic[(0, 2, 0)] = rng.randrange(1, p)
    shapes = {
        "c1 = 0": (uw(3), {}, uw(1)),
        "c1 != 0": (uw(3), uw(2), uw(1)),
        "c2 vanishes at t0": (uw(3), uw(2), vanishing),
        "conic, c1 = 0": (uw(2), {}, uw(0)),
        "linear in V": (uw(3), uw(2), {}),
        "c2 = 0 mod p only": (uw(3), uw(2), {(1, 0, 0): p, (0, 0, 1): 2 * p}),
    }
    forms = {}
    for name, (c0, c1, c2) in shapes.items():
        degree = sum(next(iter(c0)))
        table = {**c0}
        for e, c in ((1, c1), (2, c2)):
            for key, x in v_times(e, c).items():
                table[key] = table.get(key, 0) + x
        forms[name] = TernaryForm(degree, table)
    forms["pencil line times conic"] = TernaryForm(3, _times(vanishing, conic))
    return forms


def test_batch_solve_matches_the_scan_on_every_shape():
    rng = random.Random(2024)
    batches = 0
    for p in (5, 7, 11, 31, 101):
        for _ in range(4):
            for name, form in _forms_of_degree_two_in_v(rng, p).items():
                assert plane._pencil_axis(plane._reduced(form, p).coeffs) == 1, (name, p)
                swept = list(_zero_points_over_Fp(form, p))
                assert len(swept) == len(set(swept)), (name, p)
                assert sorted(swept) == sorted(zero_points_by_scan(form, p)), (name, p)
                quadratic = [t for t in range(p) if _along_v(form, p, (1, t))[2]]
                if name in ("linear in V", "c2 = 0 mod p only"):
                    assert not quadratic, (name, p)
                elif name in ("c2 vanishes at t0", "pencil line times conic"):
                    assert len(quadratic) == p - 1, (name, p)
                batches += bool(quadratic)
    assert batches


def test_the_sweeps_of_g_and_w_step_no_differences_for_c1(monkeypatch):
    # Along V both cubics have c1 = 0, so each sweep steps only the
    # differences of c2 and of the discriminant, and counts as before.
    stepped = scalars._stepped
    calls = []
    monkeypatch.setattr(scalars, "_stepped", lambda *args: calls.append(args) or stepped(*args))
    a, b, p = -3, 2, 101
    params = reduce_params(validate_curve(a, b), p)
    for form, count in (
        (chord_cubic(params), count_by_euler(-2 * a, a * a - 4 * b, p)),
        (weierstrass_form(params), count_by_euler(a, b, p)),
    ):
        calls.clear()
        assert count_zero_points_over_Fp(form, p) == count
        assert len(calls) == 2


def test_a_coefficient_that_vanishes_mod_p_does_not_force_the_scan(monkeypatch):
    # U^3 + V^3 + 7 W^3 + UVW is cubic in every coordinate over Q, but
    # linear in W mod 7, so the sweep must run along W and solve each
    # pencil line as a quadratic, never by a root scan.
    form = TernaryForm(3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 7, (1, 1, 1): 1})
    expected = sum(1 for _ in zero_points_by_scan(form, 7))
    assert plane._pencil_axis(plane._reduced(form, 7).coeffs) == 2

    def refuse(coeffs, q):
        raise AssertionError("a pencil line was solved by a root scan")

    monkeypatch.setattr(plane, "_roots_mod", refuse)
    assert count_zero_points_over_Fp(form, 7) == expected


def _times(f: dict, g: dict) -> dict:
    """The product of two coefficient tables."""
    out = {}
    for a, x in f.items():
        for b, y in g.items():
            key = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
            out[key] = out.get(key, 0) + x * y
    return out


def _compose(table: dict, rows) -> dict:
    """The table of the form at the linear forms ``rows`` (int triples) in place of U, V, W."""
    linear = [dict(zip(monomials(1), row)) for row in rows]
    out = {}
    for key, c in table.items():
        term = {(0, 0, 0): c}
        for form, e in zip(linear, key):
            for _ in range(e):
                term = _times(term, form)
        for mono, v in term.items():
            out[mono] = out.get(mono, 0) + v
    return out


def _permuted(table: dict, order) -> dict:
    return {tuple(key[i] for i in order): c for key, c in table.items()}


@st.composite
def _singular_cubics(draw):
    """Random (cubic, p) with a node or a cusp at an affine F_p point, quadratic in an axis.

    The cubic G is singular at (0, 0, 1) (no monomial has W^2) and has no
    V^3.  Its quadratic part q(U, V) is random (a node, or an isolated
    point) or a square (a cusp).  Substituting U -> m00 U + W,
    V -> a V + m10 U + m12 W, W -> m20 U + m22 W keeps V quadratic and
    moves the singular point to (1, z0, t0) on the pencil line (U, W) =
    (1, t0).  When q has no V^2 term, the leading coefficient c2 of the
    cubic along V vanishes on that line.  The coordinates are permuted last.
    """
    p = draw(st.sampled_from(PRIMES_BELOW_200))
    unit, residue = st.integers(1, p - 1), st.integers(0, p - 1)
    if draw(st.booleans()):  # node: q = alpha U^2 + beta UV + gamma V^2
        alpha, beta, gamma = (draw(residue) for _ in range(3))
    else:  # cusp: q = k (l1 U + l2 V)^2
        k, l1, l2 = draw(unit), draw(residue), draw(residue)
        alpha, beta, gamma = k * l1 * l1, 2 * k * l1 * l2, k * l2 * l2
    if draw(st.booleans()):
        gamma = 0
    base = {(2, 0, 1): alpha, (1, 1, 1): beta, (0, 2, 1): gamma}
    base.update({key: draw(residue) for key in [(3, 0, 0), (2, 1, 0), (1, 2, 0)]})
    z0, t0, a, m12, m22 = draw(residue), draw(residue), draw(unit), draw(residue), draw(residue)
    m20 = draw(residue.filter(lambda m: (m + m22 * t0) % p))
    rows = [(-t0, 0, 1), (-a * z0 - m12 * t0, a, m12), (m20, 0, m22)]
    order = draw(st.permutations(range(3)))
    return TernaryForm(3, _permuted(_compose(base, rows), order)), p


@st.composite
def _reducible_cubics(draw):
    """Random (line * conic, p) of degree <= 2 in some axis, both factors nonzero."""
    p = draw(st.sampled_from(PRIMES_BELOW_200))
    residue = st.integers(0, p - 1)
    line = dict(zip(monomials(1), draw(st.tuples(*[residue] * 3).filter(any))))
    conic = dict(zip(monomials(2), draw(st.tuples(*[residue] * 6).filter(any))))
    axis = draw(st.integers(0, 2))  # no cube of the axis in the product
    unit = tuple(1 if i == axis else 0 for i in range(3))
    if draw(st.booleans()):
        line[unit] = 0
    else:
        conic[tuple(2 * e for e in unit)] = 0
    return TernaryForm(3, _times(line, conic)), p


def _matches_the_sweep(form, p):
    assert smooth_over_Fp(form, p) == smooth_by_sweep(form, p)
    if form.degree == 3:
        assert find_flexes_over_Fp(form, p) == flexes_by_sweep(form, p)


@settings(max_examples=100, deadline=None)
@given(_forms_with_a_quadratic_axis())
def test_eliminant_search_matches_the_sweep_on_random_forms(form_p):
    _matches_the_sweep(*form_p)


@settings(max_examples=100, deadline=None)
@given(_singular_cubics())
def test_eliminant_search_finds_every_node_and_cusp(form_p):
    form, p = form_p
    assert not smooth_over_Fp(form, p)
    _matches_the_sweep(form, p)


@settings(max_examples=100, deadline=None)
@given(_reducible_cubics())
def test_eliminant_search_matches_the_sweep_on_reducible_cubics(form_p):
    _matches_the_sweep(*form_p)


def test_the_triangle_takes_the_full_sweep(monkeypatch):
    # UVW is linear in V, so c2 = 0 and the eliminant vanishes identically.
    calls = []
    sweep = plane._zero_points_over_Fp
    monkeypatch.setattr(plane, "_zero_points_over_Fp", lambda f, p: calls.append(p) or sweep(f, p))
    assert smooth_over_Fp(_triangle(), 7) is False
    assert find_flexes_over_Fp(_triangle(), 7) == flexes_by_sweep(_triangle(), 7)
    assert len(find_flexes_over_Fp(_triangle(), 7)) == 18  # the Hessian 2UVW kills every smooth point
    assert calls == [7, 7, 7]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_the_eliminant_vanishes_where_the_forms_meet(data):
    # On each line (1, t), F = c2 z^2 + c1 z + c0 and K = k3 z^3 + ... + k0
    # with the t-degrees of a cubic; R(t) = 0 wherever they share an F_p
    # zero z and wherever c2(t) = 0.
    p = data.draw(st.sampled_from([5, 7, 11, 13, 31]))
    residue = st.integers(0, p - 1)
    c = [data.draw(st.lists(residue, min_size=4 - e, max_size=4 - e)) for e in range(3)]
    k = [data.draw(st.lists(residue, min_size=4 - e, max_size=4 - e)) for e in range(4)]
    eliminant = plane._eliminant(c, k)
    assert len(eliminant) <= 12
    for t in range(p):
        f, g = ([horner(poly, t) % p for poly in polys] for polys in (c, k))
        meet = any(horner(f, z) % p == 0 == horner(g, z) % p for z in range(p))
        if meet or f[2] == 0:
            assert horner(eliminant, t) % p == 0


def test_smooth_curves_at_1009_never_take_the_full_sweep(monkeypatch):
    # G and W of smooth curves share no component with their Hessians or
    # partials, so the eliminant never vanishes mod p.
    p = 1009
    rng = random.Random(1009)
    cases = []
    while len(cases) < 10:
        a, b = rng.randrange(p), rng.randrange(1, p)
        if (a * a - 4 * b) % p:
            pp = reduce_params(validate_curve(a, b), p)
            for form in (chord_cubic(pp), weierstrass_form(pp)):
                cases.append((form, flexes_by_sweep(form, p)))
    assert all(smooth_by_sweep(form, p) for form, _ in cases)

    def refuse(form, p):
        raise AssertionError("the eliminant vanished: fell back to the full pencil sweep")

    monkeypatch.setattr(plane, "_zero_points_over_Fp", refuse)
    for form, flexes in cases:
        assert smooth_over_Fp(form, p)
        assert find_flexes_over_Fp(form, p) == flexes


@pytest.mark.parametrize(
    "sweep", [count_zero_points_over_Fp, smooth_over_Fp, find_flexes_over_Fp]
)
def test_sweeps_refuse_a_form_that_F_p_cannot_read(sweep):
    over_f7 = chord_cubic(reduce_params(validate_curve(-3, 2), 7))
    with pytest.raises(ValueError, match="scalar mod 7 is not in F_11"):
        sweep(over_f7, 11)
    sevenths = TernaryForm(3, {(3, 0, 0): Fraction(1, 7), (0, 3, 0): 1, (0, 0, 3): 1})
    with pytest.raises(ZeroDivisionError, match="not invertible mod 7"):
        sweep(sevenths, 7)


@pytest.mark.parametrize("a, b", [(-3, 2), (-5, 1)])
def test_image_count_at_the_largest_prime_matches_euler_criterion(a, b):
    # The image cubic G is E' = E/beta, so it has #E'(F_p) points; the
    # Weierstrass cubic W has #E(F_p).  The full sweep yields each once.
    p = 65521
    pp = reduce_params(validate_curve(a, b), p)
    counts = [count_by_euler(-2 * a, a * a - 4 * b, p), count_by_euler(a, b, p)]
    for form, count in zip([chord_cubic(pp), weierstrass_form(pp)], counts):
        zeros = list(_zero_points_over_Fp(form, p))
        assert len(set(zeros)) == len(zeros) == count == count_zero_points_over_Fp(form, p)
        assert all(evaluate_form(form, pt) == 0 for pt in zeros)


@pytest.mark.parametrize("a, b", [(-3, 2), (-5, 1)])
def test_eliminant_search_matches_the_sweep_at_the_largest_prime(a, b):
    # (-3, 2) has only the flex O at p = 65521; (-5, 1) also has two affine
    # ones.  Also the roots of the smoothness and flex eliminants, which
    # _roots_mod finds by forward differences, against a Horner scan.
    p = 65521
    pp = reduce_params(validate_curve(a, b), p)
    for form in (chord_cubic(pp), weierstrass_form(pp)):
        _matches_the_sweep(form, p)
        form = plane._reduced(form, p)
        axis = plane._pencil_axis(form.coeffs)
        for second in (plane.gradient(form)[axis], hessian_cubic(form)):
            k = plane._along(second.coeffs, second.degree, axis, 3)
            eliminant = plane._eliminant(plane._along(form.coeffs, 3, axis, 2), k)
            assert plane._roots_mod(eliminant, p) == roots_by_scan(eliminant, p)


def _gauss_jordan_rank(mat, p):
    """Rank mod p by a full Gauss-Jordan pass: the oracle for _rank_and_kernel_mod_p."""
    return _gauss_jordan(mat, p)[0]


def _gauss_jordan(mat, p):
    """The rank mod p and the reduced row echelon form of the rank's rows."""
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
    return rank, mat[:rank]


def _kernel_at_nullity_one(reduced, p, ncols):
    """The kernel vector of a reduced row echelon form of rank ncols - 1.

    It is 1 at the free column f and -row[f] at each row's pivot column,
    so 0 past f: 1 is its last nonzero entry.
    """
    pivots = [next(col for col, v in enumerate(row) if v) for row in reduced]
    free = next(col for col in range(ncols) if col not in pivots)
    kernel = [0] * ncols
    kernel[free] = 1
    for col, row in zip(pivots, reduced):
        kernel[col] = -row[free] % p
    return tuple(kernel)


def _min_degree_by_scalar_rows(points, p):
    """Minimal degree up to 8, kernel included, from monomial rows of F_p scalars: the oracle."""
    for d in range(1, 9):
        mons = monomials(d)
        rank, reduced = _gauss_jordan(_scalar_rows(points, mons), p)
        nullity = len(mons) - rank
        if nullity == 1:
            return MinDegree(d, 1, _kernel_at_nullity_one(reduced, p, len(mons)))
        if nullity > 1:
            return MinDegree(d, nullity)
    return None


def _scalar_rows(points, mons):
    """The monomials' values at the points, as F_p scalars, one row per point."""
    normalized = [normalize_triple(pt) for pt in points]
    return [[(t[0] ** i * t[1] ** j * t[2] ** k).value for (i, j, k) in mons] for t in normalized]


def _column_blocks(mat, size):
    """The rows of a matrix in blocks of ``size``, each a list of its columns."""
    for start in range(0, len(mat), size):
        yield [list(column) for column in zip(*mat[start : start + size])]


@st.composite
def _point_sets(draw):
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


@settings(max_examples=40, deadline=None)
@given(_point_sets())
def test_interpolation_on_ints_matches_scalar_rows(points_p):
    points, p = points_p
    found = min_interpolating_degree(points, p=p)
    assert found == _min_degree_by_scalar_rows(points, p)
    assert min_interpolating_degree(_read_by_hand(points, p), p=p) == found
    # Ranking any degree first certifies it only at nullity 1, so the
    # result, kernel included, is the plain search's.
    for first in range(1, 9):
        assert min_interpolating_degree(points, p=p, first=first) == found


@st.composite
def _matrices(draw):
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
    return mat, p, cols, draw(st.integers(1, 13))


@settings(max_examples=40, deadline=None)
@given(_matrices())
def test_row_echelon_rank_matches_gauss_jordan(mat_p):
    mat, p, cols, size = mat_p
    found = _rank_and_kernel_mod_p(_column_blocks(mat, size), p, cols)[0]
    assert found == _gauss_jordan_rank(mat, p)


def test_packed_rank_fields_hold_at_the_top_of_the_domain():
    # 45 columns (degree 8) at p = 65521: 44 dense rows, each reduced by
    # every pivot row before it, and after every 11th a combination of the
    # rows so far, which vanishes mod p only after as many reductions.
    # Fields of 2 bitlen(p) bits would carry into their neighbours here.
    p, ncols = 65521, 45
    rng = random.Random(2)
    for _ in range(3):
        dense = [[rng.randrange(p) for _ in range(ncols)] for _ in range(ncols - 1)]
        mat = []
        for n, row in enumerate(dense, start=1):
            mat.append(row)
            if n % 11 == 0:
                coeffs = [rng.randrange(p) for _ in range(n)]
                mat.append([sum(c * r[m] for c, r in zip(coeffs, dense)) for m in range(ncols)])
        rank, kernel = _rank_and_kernel_mod_p(_column_blocks(mat, 16), p, ncols)
        assert rank == _gauss_jordan_rank(mat, p) == ncols - 1
        # At nullity 1 the kernel is the one vector on every row's
        # orthogonal complement that is 1 at its last nonzero entry.
        assert next(v for v in reversed(kernel) if v) == 1
        assert all(sum(v * k for v, k in zip(r, kernel)) % p == 0 for r in mat)


def test_rank_mod_p_reads_no_row_after_full_rank():
    # The rank is full at the third row, [0, 0, 3]: at the end of a block,
    # or in the middle of one; no block after it is read.
    for head in ([[1, 0, 0], [5, 6, 0]], [[1, 0, 0], [5, 6, 0], [0, 0, 3], [1, 1, 1]]):

        def blocks():
            yield from _column_blocks(head, 2)
            yield [[0], [0], [3]]
            raise AssertionError("block read after full column rank")

        assert _rank_and_kernel_mod_p(blocks(), 7, 3)[0] == 3


@st.composite
def _tall_matrices(draw):
    # More rows than columns from a basis of ncols - nullity rows; the
    # first ``late`` rows avoid the last basis row, so that the rank sits
    # at ncols - 1 while further rows arrive, and a coefficient p leaves
    # entries that are nonzero ints but zero mod p.
    p = draw(st.sampled_from(PRIMES_BELOW_200))
    nullity = draw(st.integers(0, 2))
    cols = draw(st.integers(max(1, nullity), 12))
    row = st.lists(st.integers(-(10 ** 6), 10 ** 6), min_size=cols, max_size=cols)
    basis = draw(st.lists(row, min_size=cols - nullity, max_size=cols - nullity))
    late = draw(st.integers(0, cols + 6))
    mat = []
    for n in range(draw(st.integers(cols + 1, cols + 12))):
        coeffs = [draw(st.integers(-3, 3) | st.just(p)) for _ in basis]
        if basis and n < late:
            coeffs[-1] = 0
        mat.append([sum(c * b[m] for c, b in zip(coeffs, basis)) for m in range(cols)])
    return mat, p, cols, draw(st.integers(1, cols + 13))


@settings(max_examples=40, deadline=None)
@given(_tall_matrices())
def test_kernel_path_matches_gauss_jordan_on_rows_past_nullity_one(mat_p):
    mat, p, cols, size = mat_p
    rank = _gauss_jordan_rank(mat, p)
    found, kernel = _rank_and_kernel_mod_p(_column_blocks(mat, size), p, cols)
    assert found == rank
    assert (kernel is not None) == (rank == cols - 1)
    if kernel is not None:
        assert any(kernel)
        assert all(sum(v * k for v, k in zip(r, kernel)) % p == 0 for r in mat)


def test_rank_mod_p_reads_no_row_after_a_row_off_the_kernel():
    # At p = 7 the first three rows give rank 2 and the kernel (3, 2, 1);
    # [3, 7, 5] lies on it, [0, 0, 1] does not.  In blocks of 1 to 5 rows
    # the kernel test starts at the end of a block or inside one, and the
    # row off the kernel is in the same block or a later one.
    head = [[1, 2, 0], [2, 4, 0], [0, 1, 5], [3, 7, 5]]
    for size in range(1, 6):
        assert _rank_and_kernel_mod_p(_column_blocks(head, size), 7, 3) == (2, (3, 2, 1))

        def blocks():
            yield from _column_blocks(head + [[0, 0, 1]], size)
            raise AssertionError("block read after full column rank")

        assert _rank_and_kernel_mod_p(blocks(), 7, 3)[0] == 3


def _block_boundary_sets(p):
    """Point sets mod p = 31 with their minimal degree, as the row-by-row rank gave it.

    The cuspidal cubic V^3 = U^2 W is (1, t, t^3) and the conic U W = V^2
    is (1, t, t^2); (1, 2, 9) lies on neither, and the conic's two extra
    points lie on the line W = U + V.
    """
    cubic = [(1, t, t ** 3 % p) for t in range(p)]
    conic = [(1, t, t * t % p) for t in range(p)]
    return [
        (cubic, MinDegree(3, 1, (0, 0, 30, 0, 0, 0, 1, 0, 0, 0))),
        (cubic[:10] + [(1, 2, 9)] + cubic[10:], MinDegree(4, 2)),
        (cubic[:25] + [(1, 2, 9)] + cubic[25:], MinDegree(4, 2)),
        (conic, MinDegree(2, 1, (0, 0, 30, 1, 0, 0))),
        (conic[:12] + [(1, 1, 2)] + conic[12:21] + [(0, 1, 1)] + conic[21:],
         MinDegree(3, 1, (0, 0, 1, 30, 1, 30, 30, 1, 0, 0))),
    ]


def test_interpolation_across_blocks_matches_scalar_rows(monkeypatch):
    # On the cubic's points the rank at degree 3 reaches 9 = ncols - 1 at
    # the ninth point, so the kernel test starts inside a block of 4, 5,
    # 10, 16 or 64 points and at the end of one of 1, 3 or 9.  The point
    # off the cubic at index 10 makes the rank full inside a block of 4 or
    # 8; at index 25 it is in a later block than the ninth point for every
    # size up to 16.
    p = 31
    sets = _block_boundary_sets(p)
    rows = _scalar_rows(_fp_triples(sets[0][0], p), monomials(3))
    assert [_gauss_jordan_rank(rows[:n], p) for n in (8, 9)] == [8, 9]
    for points, expected in sets:
        assert _min_degree_by_scalar_rows(_fp_triples(points, p), p) == expected
    for size in (1, 2, 3, 4, 5, 8, 9, 10, 16, 64):
        monkeypatch.setattr(plane, "INTERPOLATION_BLOCK", size)
        assert min_interpolating_degree([], p=p) == MinDegree(1, 3)
        for points, expected in sets:
            for first in (None, *range(1, 9)):
                assert min_interpolating_degree(points, p=p, first=first) == expected


def test_interpolation_builds_no_block_after_the_answer(monkeypatch):
    # Every rank builds the blocks up to the one holding the first row at
    # which the rank of the rows so far is full, or every block when it
    # stays short of full, and none before the rank starts.
    p = 31
    columns, rank = plane._monomial_columns, plane._rank_and_kernel_mod_p
    built, ranks = [], []

    def counted_columns(block, mons, p):
        built.append(len(mons))
        return columns(block, mons, p)

    def counted_rank(blocks, p, ncols):
        start = len(built)
        found = rank(blocks, p, ncols)
        ranks.append((ncols, built[start:]))
        return found

    monkeypatch.setattr(plane, "_monomial_columns", counted_columns)
    monkeypatch.setattr(plane, "_rank_and_kernel_mod_p", counted_rank)
    for size in (1, 4, 8, 64):
        monkeypatch.setattr(plane, "INTERPOLATION_BLOCK", size)
        for points, _ in _block_boundary_sets(p):
            for first in (None, 3, 6):
                built.clear()
                ranks.clear()
                min_interpolating_degree(points, p=p, first=first)
                assert len(built) == sum(len(blocks) for _, blocks in ranks)
                for ncols, blocks in ranks:
                    degree = next(d for d in range(1, 9) if len(monomials(d)) == ncols)
                    rows = _scalar_rows(_fp_triples(points, p), monomials(degree))
                    ranks_so_far = (_gauss_jordan_rank(rows[:n], p) for n in range(1, len(rows) + 1))
                    read = next((n for n, r in enumerate(ranks_so_far, 1) if r == ncols), len(rows))
                    assert blocks == [ncols] * -(-read // size)


def test_interpolation_never_holds_the_matrix():
    # The 4001 points (1, t, t^6) mod 4001 lie on the sextic U^5 W = V^6
    # and on no curve of lower degree, so with first = 6 the rank reads
    # every block of degree 6 (28 columns).  The whole matrix would hold
    # 28 ints per point, about 11 times the normalized points; one block
    # at a time, the peak stays within a small factor of the points.
    p = 4001
    points = [(1, t, pow(t, 6, p)) for t in range(p)]
    assert len(points) > 8 * plane.INTERPOLATION_BLOCK
    tracemalloc.start()
    try:
        normalized = [normalize_mod_p([c % p for c in pt], p) for pt in points]
        held = tracemalloc.get_traced_memory()[0]
        del normalized
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        found = min_interpolating_degree(points, p=p, first=6)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert found[:2] == (6, 1)
    assert peak < 3 * held
