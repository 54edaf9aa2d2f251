"""The int kernel of E(F_p) against the scalar path, and its group laws.

The per-point claims of ``suite`` run on int residue pairs (None for O)
and normalized int triples.  Each kernel operation is compared here with
its scalar counterpart on random curves with p < 200 (the multiples n q
also on every smooth curve at p <= 11), and the invariants
the suite relies on (associativity, the translation by beta as an
involution, the chord map factoring through it, the Hasse window) are
checked on both representations.  The scalar group law is an independent
oracle: it still runs, and agrees, with the int kernel patched to raise.
The batch translates ``translates_mod_p``, the batch chords
``chords_mod_p``, the batch normalization ``normalize_all_mod_p`` and the
cross product ``cross_mod_p`` are checked against their per-point oracles
``translate_mod_p``, ``chord_mod_p`` and ``line_through_mod_p`` (in
``oracles``) and ``normalize_mod_p``; the batch inversion
``inverses_mod_p`` they share, against ``pow(v, -1, p)``.  The relation
by which the cross-checks test a translate, ``verify._is_sum_with_beta``,
is checked against ``add_mod_p``.
"""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from chordcubic import curve
from chordcubic.chord import (
    DualPoint,
    TernaryForm,
    chord_cubic,
    chord_cubic_generic,
    chord_map,
    chords_mod_p,
    cross_mod_p,
    line_through,
    normalize_all_mod_p,
    normalize_mod_p,
)
from chordcubic.curve import (
    CurvePoint,
    add_mod_p,
    affine_points_mod_p,
    enumerate_points,
    group_add,
    point_order,
    reduce_params,
    scalar_mul,
    scalar_mul_mod_p,
    translate_by_beta,
    translates_mod_p,
    validate_curve,
)
from chordcubic.plane import _reduced, evaluate_form, monomials
from chordcubic.scalars import PrimeField, PrimeFieldScalar, inverses_mod_p, residue
from chordcubic.verify import _is_sum_with_beta, _triple
from fp_strategies import curve_residues, curves, outcome
from oracles import chord_mod_p, line_through_mod_p, translate_mod_p


def _setup(data):
    """A random curve over F_p: the reduced params and the int points, O first."""
    a, b, p = data.draw(curves())
    pp = reduce_params(validate_curve(a, b), p)
    return pp, a, b, p, [None] + affine_points_mod_p(a, b, p)


def _pair(point: CurvePoint):
    return None if point.is_infinity else (point.x.value, point.y.value)


def _point(pp, s) -> CurvePoint:
    return CurvePoint.infinity(pp) if s is None else CurvePoint.affine(pp, *s)


def _ints(coords) -> tuple:
    return tuple(c.value for c in coords)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_int_points_match_enumerate_points_and_the_brute_force_list(data):
    pp, a, b, p, points = _setup(data)
    assert points == [_pair(q) for q in enumerate_points(pp, p)]
    assert [_triple(s) for s in points] == curve_residues(a, b, p)


def _meets_curve_again(a, b, p, s, t, total) -> bool:
    """Whether the chord (or tangent) through s and t passes through -(s + t)."""
    r = _triple(None if total is None else (total[0], -total[1] % p))
    if s != t:
        rows = (_triple(s), _triple(t), r)
        det = (
            rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
            - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
            + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
        )
        return det % p == 0
    x, y, z = _triple(s)
    grad = (
        -3 * x * x - 2 * a * x * z - b * z * z,
        2 * y * z,
        y * y - a * x * x - 2 * b * x * z,
    )
    return sum(g * c for g, c in zip(grad, r)) % p == 0


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_int_add_matches_group_add_and_the_chord_tangent_geometry(data):
    pp, a, b, p, points = _setup(data)
    s, t = data.draw(st.sampled_from(points)), data.draw(st.sampled_from(points))
    total = add_mod_p(a, b, p, s, t)
    assert total == _pair(group_add(_point(pp, s), _point(pp, t)))
    assert total is None or total in points
    if s is not None and t is not None:
        assert _meets_curve_again(a, b, p, s, t, total)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_scalar_group_law_runs_and_agrees_with_the_int_kernel_patched_to_raise(data):
    def refuse(*args):
        raise AssertionError("the scalar group law reached the int kernel")

    pp, a, b, p, points = _setup(data)
    s, t = data.draw(st.sampled_from(points)), data.draw(st.sampled_from(points))
    n = data.draw(st.integers(0, p + 1 + isqrt(4 * p)))
    total, multiple = add_mod_p(a, b, p, s, t), scalar_mul_mod_p(a, b, p, n, s)
    shifted = translate_mod_p(b, p, s)
    order, r = 1, s
    while r is not None:
        order, r = order + 1, add_mod_p(a, b, p, r, s)
    q = _point(pp, s)
    with pytest.MonkeyPatch.context() as patch:
        for name in ("add_mod_p", "scalar_mul_mod_p", "translates_mod_p"):
            patch.setattr(curve, name, refuse)
        assert _pair(group_add(q, _point(pp, t))) == total
        assert _pair(scalar_mul(n, q)) == multiple
        assert point_order(q) == order
        assert _pair(translate_by_beta(q)) == shifted


@pytest.mark.parametrize("p", [5, 7, 11])
def test_int_multiple_matches_scalar_mul_on_every_small_curve(p):
    # Every point of every smooth curve mod p and every n up to the Hasse
    # bound (at p <= 31 this sweep would take minutes against scalar_mul).
    field = PrimeField(p)
    for a in range(p):
        for b in range(1, p):
            if (a * a - 4 * b) % p == 0:
                continue
            pp = validate_curve(field(a), field(b))
            for s in [None] + affine_points_mod_p(a, b, p):
                q = _point(pp, s)
                for n in range(p + 2 + isqrt(4 * p)):
                    assert scalar_mul_mod_p(a, b, p, n, s) == _pair(scalar_mul(n, q))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_int_multiple_matches_scalar_mul(data):
    pp, a, b, p, points = _setup(data)
    s = data.draw(st.sampled_from(points))
    q = _point(pp, s)
    for n in range(p + 2 + isqrt(4 * p)):
        assert scalar_mul_mod_p(a, b, p, n, s) == _pair(scalar_mul(n, q))


def test_int_multiple_rejects_a_negative_multiplier():
    with pytest.raises(ValueError, match="nonnegative"):
        scalar_mul_mod_p(-3, 2, 101, -1, (0, 0))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_int_translation_matches_translate_by_beta(data):
    pp, a, b, p, points = _setup(data)
    for s in points:
        assert translate_mod_p(b, p, s) == _pair(translate_by_beta(_point(pp, s)))


def _sums_with_beta_match_add_mod_p(a, b, p, points, drawn):
    """At each q of ``points``, the relation holds for exactly the candidate add_mod_p gives.

    The candidates are q + beta, O, beta, -(q + beta) and ``drawn``.
    """
    for q in points:
        total = add_mod_p(a, b, p, q, (0, 0))
        negated = None if total is None else (total[0], -total[1] % p)
        for s in (total, None, (0, 0), negated, drawn):
            assert _is_sum_with_beta(a, p, q, s) == (s == total)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sum_with_beta_relation_matches_add_mod_p(data):
    pp, a, b, p, points = _setup(data)
    _sums_with_beta_match_add_mod_p(a, b, p, points, data.draw(st.sampled_from(points)))


@pytest.mark.parametrize("a, b", [(-3, 2), (-5, 1)])
def test_sum_with_beta_relation_matches_add_mod_p_at_the_largest_prime(a, b):
    # O, beta and about 130 points spread over the enumeration.
    p = 65521
    a, b = a % p, b % p
    points = [None] + affine_points_mod_p(a, b, p)
    sample = points[:3] + points[3::509]
    _sums_with_beta_match_add_mod_p(a, b, p, sample, points[len(points) // 2])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_int_chord_matches_chord_map(data):
    pp, a, b, p, points = _setup(data)
    for s in points:
        assert chord_mod_p(b, p, s) == _ints(chord_map(_point(pp, s)).coords)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_batch_chords_match_chord_mod_p(data):
    pp, a, b, p, points = _setup(data)
    assert points[0] is None and (0, 0) in points
    assert chords_mod_p(b, p, points) == [chord_mod_p(b, p, s) for s in points]
    shuffled = data.draw(st.permutations(points))
    assert chords_mod_p(b, p, shuffled) == [chord_mod_p(b, p, s) for s in shuffled]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_batch_translates_index_translate_mod_p(data):
    # Each entry is the index of translate_mod_p in the list, in any order;
    # a translate dropped from the list gets None, never a KeyError.
    pp, a, b, p, points = _setup(data)
    shuffled = data.draw(st.permutations(points))
    for pts in (points, shuffled):
        indices = translates_mod_p(b, p, pts)
        assert [pts[j] for j in indices] == [translate_mod_p(b, p, s) for s in pts]
    gone = data.draw(st.sampled_from(points))
    rest = [s for s in points if s != gone]
    expected = [
        None if translate_mod_p(b, p, s) == gone else rest.index(translate_mod_p(b, p, s))
        for s in rest
    ]
    assert translates_mod_p(b, p, rest) == expected


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_batch_inverses_match_pow(data):
    p = data.draw(curves())[2]
    values = data.draw(st.lists(st.integers(-3 * p, 3 * p).filter(lambda v: v % p)))
    assert inverses_mod_p(values, p) == [pow(v, -1, p) for v in values]
    spot = data.draw(st.integers(0, len(values)))
    zero = data.draw(st.sampled_from([0, p, -2 * p]))
    with pytest.raises(ValueError):
        inverses_mod_p(values[:spot] + [zero] + values[spot:], p)


def test_batch_chords_scale_leads_other_than_1():
    # y^2 = x^3 + x^2 + 3x mod 7: the raw chords of the affine points off
    # beta lead with 5, 2 or 6, and at x = 2 and x = 5 with V, as U = 0.
    points = [None] + affine_points_mod_p(1, 3, 7)
    assert points == [None, (0, 0), (2, 2), (2, 5), (4, 1), (4, 6), (5, 2), (5, 5), (6, 2), (6, 5)]
    assert chords_mod_p(3, 7, points) == [
        (1, 0, 0),
        (1, 0, 0),
        (0, 1, 5),
        (0, 1, 2),
        (1, 5, 5),
        (1, 2, 5),
        (0, 1, 5),
        (0, 1, 2),
        (1, 5, 5),
        (1, 2, 5),
    ]
    assert chords_mod_p(3, 7, points) == [chord_mod_p(3, 7, s) for s in points]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_batch_normalization_matches_normalize_mod_p(data):
    p = data.draw(curves())[2]
    residue = st.integers(0, p - 1)
    triples = data.draw(st.lists(st.tuples(residue, residue, residue).filter(any)))
    expected = [normalize_mod_p(t, p) for t in triples]
    assert normalize_all_mod_p(list(triples), p) == expected
    if triples:  # one zero triple anywhere spoils the common inverse
        spot = data.draw(st.integers(0, len(triples)))
        with pytest.raises(ValueError):
            normalize_all_mod_p(triples[:spot] + [(0, 0, 0)] + triples[spot:], p)


def _triple_pair(data):
    """A prime p, a nonzero int triple s and a multiple of s, zero or an unrelated t."""
    p = data.draw(curves())[2]
    residue = st.integers(0, p - 1)
    s = data.draw(st.tuples(residue, residue, residue).filter(any))
    unit = data.draw(st.integers(0, p - 1))
    t = data.draw(
        st.sampled_from([tuple(c * unit % p for c in s)])
        | st.tuples(residue, residue, residue)
    )
    return p, s, t


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_int_cross_product_matches_line_through(data):
    p, s, t = _triple_pair(data)
    scalars = [tuple(PrimeFieldScalar(c, p) for c in v) for v in (s, t)]
    assert outcome(lambda: line_through_mod_p(s, t, p)) == outcome(
        lambda: _ints(line_through(*scalars).coords)
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_normalized_cross_product_is_line_through_mod_p(data):
    p, s, t = _triple_pair(data)
    cross = cross_mod_p(s, t, p)
    if any(cross):
        assert normalize_mod_p(cross, p) == line_through_mod_p(s, t, p)
    else:  # coincident points
        with pytest.raises(ValueError):
            normalize_mod_p(cross, p)
        with pytest.raises(ValueError, match="no unique line"):
            line_through_mod_p(s, t, p)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_int_g_matches_evaluate_form_on_chords_and_random_lines(data):
    # A form read mod p by _reduced has at an int triple the residue of the
    # form's value in its own field.  The forms: G on the int residues of a
    # and b, as the F_p claims build it, G over F_p and the monic G of
    # chord_cubic, at every chord, where all three vanish, and at random
    # triples; and at the random triples a random form of degree 0 to 4,
    # over F_p or over Q, whose coefficients and coordinates are then
    # rationals equal to residues mod p, half the coefficients 0 mod p but
    # mostly not 0.
    pp, a, b, p, points = _setup(data)
    cubics = [chord_cubic_generic(a, b), chord_cubic_generic(pp.a, pp.b), chord_cubic(pp)]
    residues = st.integers(0, p - 1)
    triples = data.draw(st.lists(st.tuples(residues, residues, residues), max_size=20))
    chords = [chord_mod_p(b, p, s) for s in points]
    for line in chords + triples:
        scalars = tuple(PrimeFieldScalar(c, p) for c in line)
        values = [_reduced(g, p).evaluate(line) % p for g in cubics]
        assert values == [residue(evaluate_form(g, scalars), p) for g in cubics]
        assert values[0] == values[1]
        assert (line in chords) <= (values == [0, 0, 0])

    over_q = data.draw(st.booleans())
    lifts = st.tuples(st.integers(1, 60).filter(lambda d: d % p), st.integers(-3, 3))

    def lift(r):
        if not over_q:
            return PrimeFieldScalar(r, p)
        d, k = data.draw(lifts)
        return Fraction(r * d + k * p, d)

    degree = data.draw(st.integers(0, 4))
    table = {key: data.draw(st.just(0) | residues) for key in monomials(degree)}
    form = TernaryForm(degree, {key: lift(r) for key, r in table.items()})
    for pt in triples:
        lifted = tuple(lift(c) for c in pt)
        assert _reduced(form, p).evaluate(pt) % p == residue(form.evaluate(lifted), p)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_group_add_is_associative_on_ints_and_on_curve_points(data):
    pp, a, b, p, points = _setup(data)
    s, t, u = (data.draw(st.sampled_from(points)) for _ in range(3))

    def add(v, w):
        return add_mod_p(a, b, p, v, w)

    assert add(add(s, t), u) == add(s, add(t, u))
    q, r, w = (_point(pp, v) for v in (s, t, u))
    assert group_add(group_add(q, r), w) == group_add(q, group_add(r, w))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_translation_by_beta_is_an_involution_and_the_chord_factors_through_it(data):
    pp, a, b, p, points = _setup(data)
    for s in points:
        shifted = translate_mod_p(b, p, s)
        assert shifted != s and translate_mod_p(b, p, shifted) == s
        assert chord_mod_p(b, p, shifted) == chord_mod_p(b, p, s)
        q = _point(pp, s)
        assert translate_by_beta(translate_by_beta(q)) == q
        assert chord_map(translate_by_beta(q)) == chord_map(q)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_point_count_sits_in_the_hasse_window(data):
    pp, a, b, p, points = _setup(data)
    for count in (len(points), len(enumerate_points(pp, p))):
        assert (count - p - 1) ** 2 <= 4 * p
        assert count % 2 == 0


def test_dual_point_of_an_int_chord_prints_like_chord_map():
    pp = reduce_params(validate_curve(-3, 2), 101)
    for s in [None] + affine_points_mod_p(pp.a.value, pp.b.value, 101):
        assert str(DualPoint(chord_mod_p(2, 101, s))) == str(chord_map(_point(pp, s)))
