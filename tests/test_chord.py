from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chordcubic.chord import (
    DualPoint,
    TernaryForm,
    chord_cubic,
    chord_map,
    cubic_invariants,
    line_through,
    normalize_triple,
    weierstrass_form,
)
from chordcubic.curve import (
    CurvePoint,
    beta,
    enumerate_points,
    reduce_params,
    translate_by_beta,
    validate_curve,
)
from chordcubic.plane import evaluate_form, monomials
from chordcubic.poly import MultiPoly
from chordcubic.scalars import PrimeFieldScalar
from fp_strategies import PRIMES_BELOW_200, outcome, triples
from oracles import form_at_by_products, invariants_form, poly_at

UV2, U2W, V2W, W3 = (1, 2, 0), (2, 0, 1), (0, 2, 1), (0, 0, 3)


def test_chord_map_examples():
    params = validate_curve(0, 4)
    assert chord_map(CurvePoint.affine(params, 2, 4)) == DualPoint((1, 0, -2))
    assert chord_map(CurvePoint.infinity(params)) == DualPoint((1, 0, 0))
    assert chord_map(beta(params)) == DualPoint((1, 0, 0))
    other = validate_curve(-3, 2)
    assert chord_map(CurvePoint.affine(other, 1, 0)) == DualPoint((0, 1, 0))


def test_chord_cubic_tables():
    tables = {
        (-3, 2): {UV2: 8, V2W: 6, U2W: 2, W3: -1},
        (0, 1): {UV2: 2, U2W: 1, W3: -1},
        (0, 4): {UV2: 32, U2W: 4, W3: -1},
    }
    for (a, b), want in tables.items():
        got = chord_cubic(validate_curve(a, b)).coeffs
        assert got == want, (a, b, got)


def test_cubic_invariants_closed_forms():
    inv = cubic_invariants(validate_curve(3, 1))
    assert (inv.e, inv.c1, inv.c2, inv.mu_inv) == (
        Fraction(-8, 5),
        Fraction(-12, 5),
        Fraction(-4, 5),
        Fraction(3, 2),
    )
    inv = cubic_invariants(validate_curve(0, 1))
    assert (inv.e, inv.c1, inv.c2, inv.mu_inv) == (2, 0, 1, 0)
    inv = cubic_invariants(validate_curve(-3, 2))
    assert (inv.e, inv.c1, inv.c2, inv.mu_inv) == (-64, 24, -16, Fraction(-3, 4))


def test_invariants_equation_at_a_curve_point():
    # Evaluate both sides of the depressed equation at the chord of the
    # point x = 2 on y^2 = x^3 + 3x^2 + x, keeping y symbolic with y^2 = 22.
    inv = cubic_invariants(validate_curve(3, 1))
    x_val, a_val, b_val = 2, 3, 1
    y = MultiPoly.variable("y")
    u = y * (x_val * x_val + b_val)
    v = MultiPoly({(0, 0, 0, 0): b_val * x_val - x_val ** 3})
    w = -2 * b_val * x_val * y
    s = u - inv.mu_inv * w
    lhs = inv.e * s * v * v
    rhs = w ** 3 - inv.c1 * s * w * w - inv.c2 * s * s * w
    diff = lhs - rhs
    total = Fraction(0)
    for (ex, ey, ea, eb), coeff in diff.terms.items():
        assert (ex, ea, eb) == (0, 0, 0) and ey % 2 == 1
        total += coeff * Fraction(22) ** ((ey - 1) // 2)
    assert total == 0


def test_invariants_form_matches_chord_cubic():
    for a, b in [(3, 1), (0, 1), (-3, 2), (5, 2), (-1, -1), (Fraction(1, 2), 3)]:
        params = validate_curve(a, b)
        assert invariants_form(params) == chord_cubic(params)
    for a, b, p in [(3, 1, 101), (0, 1, 7), (-3, 2, 211)]:
        params = reduce_params(validate_curve(a, b), p)
        assert invariants_form(params) == chord_cubic(params)


def test_line_through_examples():
    assert line_through((0, 1, 0), (0, 0, 1)) == DualPoint((1, 0, 0))
    assert line_through((2, 4, 1), (2, -4, 1)) == DualPoint((1, 0, -2))
    with pytest.raises(ValueError):
        line_through((1, 2, 3), (2, 4, 6))


def test_chord_factors_through_translation():
    for a, b, p in [(-3, 2, 7), (0, -1, 5), (0, 4, 101), (5, 3, 211)]:
        for q in enumerate_points(validate_curve(a, b), p):
            assert chord_map(q) == chord_map(translate_by_beta(q))


def test_chord_matches_two_point_line_oracle():
    for a, b, p in [(-3, 2, 7), (0, -1, 5), (3, 1, 101)]:
        for q in enumerate_points(validate_curve(a, b), p):
            shifted = translate_by_beta(q)
            if q != shifted:
                assert chord_map(q) == line_through(q.coords, shifted.coords)


def test_every_chord_satisfies_the_cubic():
    for a, b, p in [(-3, 2, 7), (0, -1, 5), (0, 4, 101)]:
        params = reduce_params(validate_curve(a, b), p)
        cubic = chord_cubic(params)
        for q in enumerate_points(params, p):
            assert evaluate_form(cubic, chord_map(q).coords) == 0


def test_image_size_is_half_the_group():
    for a, b, p in [(-3, 2, 7), (0, -1, 5), (3, 1, 101)]:
        points = enumerate_points(validate_curve(a, b), p)
        image = {chord_map(q) for q in points}
        assert len(image) == len(points) // 2


def test_rational_chords_satisfy_the_cubic():
    params = validate_curve(0, 4)
    cubic = chord_cubic(params)
    for x, y in [(2, 4), (2, -4)]:
        q = CurvePoint.affine(params, x, y)
        assert evaluate_form(cubic, chord_map(q).coords) == 0
    # Non-integral coordinates over a curve with fractional b.
    params = validate_curve(0, Fraction(63, 16))
    q = CurvePoint.affine(params, Fraction(1, 4), 1)
    shifted = translate_by_beta(q)
    assert shifted == CurvePoint.affine(params, Fraction(63, 4), -63)
    assert chord_map(q) == line_through(q.coords, shifted.coords)
    assert evaluate_form(chord_cubic(params), chord_map(q).coords) == 0


def test_weierstrass_form_vanishes_on_points():
    params = reduce_params(validate_curve(-3, 2), 7)
    form = weierstrass_form(params)
    for q in enumerate_points(params, 7):
        assert evaluate_form(form, q.coords) == 0


def test_chord_cubic_symbolic_specialization():
    # The generic coefficient table specializes to each numeric table.
    from chordcubic.chord import chord_cubic_generic
    from chordcubic.poly import A, B

    generic = chord_cubic_generic(A, B)
    numeric = chord_cubic_generic(Fraction(-3), Fraction(2))
    for key, coeff in generic.coeffs.items():
        assert poly_at(coeff, Fraction, a=-3, b=2) == numeric.coeffs.get(key, Fraction(0))


def test_image_cubic_table_is_the_T_form():
    # With W = 1 the monomials UV^2, U^2 W, V^2 W and W^3 stay distinct, so
    # the equality pins every coefficient of the stored table.
    from chordcubic.chord import chord_cubic_generic
    from chordcubic.poly import A, B, X, Y

    t = 2 * B * X - A
    t_form = 4 * B ** 2 * t * Y ** 2 - (4 * B - A ** 2) + 2 * A * t + t ** 2
    assert chord_cubic_generic(A, B).evaluate((X, Y, 1)) == t_form


def test_dual_point_normalization():
    assert DualPoint((32, 0, -64)) == DualPoint((1, 0, -2))
    assert str(DualPoint((0, -3, 6))) == "[0:1:-2]"
    assert hash(DualPoint((2, 4, 6))) == hash(DualPoint((1, 2, 3)))
    with pytest.raises(ValueError):
        DualPoint((0, 0, 0))


def test_dual_point_normalization_over_Fp():
    p = 101
    line = DualPoint((0, 7, PrimeFieldScalar(21, p)))
    assert str(line) == "[0:1:3]"
    assert all(isinstance(c, PrimeFieldScalar) for c in line.coords)
    assert DualPoint((PrimeFieldScalar(1, p), 2, Fraction(1, 3))).coords == (1, 2, 34)
    with pytest.raises(ValueError, match="must not all vanish"):
        DualPoint((PrimeFieldScalar(0, p), p, -p))
    with pytest.raises(ValueError, match="mixes different prime fields"):
        DualPoint((PrimeFieldScalar(1, p), PrimeFieldScalar(1, 103), 0))
    with pytest.raises(ZeroDivisionError, match="not invertible mod 101"):
        DualPoint((PrimeFieldScalar(1, p), Fraction(1, 202), 0))


def _normalized_by_residues(coords):
    """normalize_triple by residue arithmetic, with no field arithmetic.

    The field is F_q for the one modulus of the scalar entries, else Q.
    Over F_q an int gives ``% q``, a Fraction ``numerator * pow(denominator,
    -1, q)`` and a scalar its ``.value``, and the residues are scaled by
    ``pow(lead, -1, q)``; over Q the entries are divided by the lead.
    """
    moduli = {c.modulus for c in coords if isinstance(c, PrimeFieldScalar)}
    if len(moduli) > 1:
        raise ValueError("two moduli")
    if not moduli:
        values = [Fraction(c) for c in coords]
        lead = next((v for v in values if v), None)
        if lead is None:
            raise ValueError("zero triple")
        return [v / lead for v in values]
    (q,) = moduli
    residues = []
    for c in coords:
        if isinstance(c, PrimeFieldScalar):
            residues.append(c.value)
        elif isinstance(c, Fraction):
            if c.denominator % q == 0:
                raise ZeroDivisionError("denominator 0 mod q")
            residues.append(c.numerator * pow(c.denominator, -1, q) % q)
        elif type(c) is int:
            residues.append(c % q)
        else:
            raise ValueError("not an int, Fraction or scalar")
    lead = next((r for r in residues if r), None)
    if lead is None:
        raise ValueError("zero triple")
    inverse = pow(lead, -1, q)
    return [PrimeFieldScalar(r * inverse % q, q) for r in residues]


def _by_value(build):
    """outcome(build), with an exception compared by its type alone."""
    found = outcome(build)
    return found[0] if isinstance(found, tuple) else found


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_normalize_triple_matches_residue_arithmetic(data):
    p = data.draw(st.sampled_from(PRIMES_BELOW_200))
    # Unit vectors scaled by a unit put a lead other than 1 after zeros.
    coords = data.draw(triples(p, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    expected = _by_value(lambda: _normalized_by_residues(coords))
    assert _by_value(lambda: normalize_triple(coords)) == expected
    assert _by_value(lambda: DualPoint(coords).coords) == expected


def test_ternary_form_canonicalization():
    # Content is removed and the leading (descending-lex) coefficient
    # ends up positive.
    form = TernaryForm(2, {(2, 0, 0): Fraction(-2, 3), (0, 2, 0): Fraction(4, 3)})
    canon = form.canonical()
    assert canon.coeffs == {(2, 0, 0): 1, (0, 2, 0): -2}
    assert canon.canonical() == canon


def _ring_values(ring: str, p: int):
    """Values of one ring: small ints, Fractions, scalars mod p or polynomials, zero included."""
    if ring == "int":
        return st.integers(-3, 3)
    if ring == "Fraction":
        return st.fractions(-3, 3, max_denominator=3)
    if ring == "F_p":
        return st.builds(PrimeFieldScalar, st.integers(0, p - 1), st.just(p))
    exponents = st.tuples(*[st.integers(0, 1)] * 4)
    return st.dictionaries(exponents, st.integers(-2, 2), max_size=2).map(MultiPoly)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_evaluate_matches_the_product_of_every_power(data):
    # evaluate skips the powers with exponent 0; the value and its type must
    # be those of c * u**i * v**j * w**k summed, degree 0 and zero forms too.
    ring = data.draw(st.sampled_from(["int", "Fraction", "F_p", "MultiPoly"]))
    values = _ring_values(ring, data.draw(st.sampled_from(PRIMES_BELOW_200)))
    coeffs = st.integers(-3, 3) | values
    if ring != "F_p":
        coeffs |= st.fractions(-3, 3, max_denominator=3)
    degree = data.draw(st.integers(0, 4))
    form = TernaryForm(degree, data.draw(st.dictionaries(st.sampled_from(monomials(degree)), coeffs)))
    u, v, w = data.draw(st.tuples(values, values, values))
    for f, coords in ((form, (u, v, w)), (form, (u, v - v, w)), (TernaryForm(degree, {}), (u, v, w))):
        got, want = f.evaluate(coords), form_at_by_products(f, coords)
        assert type(got) is type(want) and got == want
        if isinstance(want, MultiPoly):
            assert {k: type(c) for k, c in got.terms.items()} == {
                k: type(c) for k, c in want.terms.items()
            }


def test_ternary_form_validation():
    with pytest.raises(ValueError):
        TernaryForm(3, {(1, 1, 0): 1})
    with pytest.raises(ValueError):
        TernaryForm(2, {(1, -1, 2): 1})


def test_ternary_form_serialization():
    form = chord_cubic(validate_curve(-3, 2))
    assert form.as_json_table() == {
        "U2V0W1": "2",
        "U1V2W0": "8",
        "U0V2W1": "6",
        "U0V0W3": "-1",
    }
    assert str(form) == "2·U^2·W + 8·U·V^2 + 6·V^2·W + -1·W^3"
