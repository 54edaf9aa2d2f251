from math import isqrt

import pytest

from chordcubic import verify
from chordcubic.chord import DualPoint, chord_map
from chordcubic.curve import (
    beta,
    enumerate_points,
    group_add,
    point_order,
    reduce_params,
    scalar_mul,
    three_torsion_flexes,
    validate_curve,
)
from chordcubic.plane import dual_incidence, find_flexes_over_Fp
from chordcubic.scalars import PrimeField
from chordcubic.verify import (
    Report,
    lcg_stream,
    quotient_params,
    run_full_suite,
    sample_params,
    verify_chord_incidence_symbolic,
    verify_cross_checks,
    verify_degree_remark,
    verify_fibers,
    verify_flex_correspondence,
    verify_identity_symbolic,
    verify_quotient,
)


def test_incidence_symbolic_passes():
    report = verify_chord_incidence_symbolic()
    assert report.status == "pass" and report.witness == ""


def test_incidence_numeric_shadow():
    # The identity specialized at a = -3, b = 2 over F_7, on every point.
    for q in enumerate_points(validate_curve(-3, 2), 7):
        line = chord_map(q)
        assert dual_incidence(q.coords, line)


def test_incidence_mutation_fails_with_witness():
    report = verify_chord_incidence_symbolic(mutate="incidence_v_sign")
    assert report.status == "fail"
    assert report.witness


def test_identity_symbolic_passes():
    report = verify_identity_symbolic()
    assert report.status == "pass"


def test_identity_specializes_to_zero():
    # Substitute a = -3, b = 2 into G(U(x,y), V(x,y), W(x,y)) and reduce by
    # the specialized relation y^2 = x^3 - 3x^2 + 2x: still the zero poly.
    from chordcubic.chord import chord_cubic_generic
    from chordcubic.poly import MultiPoly, X, Y, poly_substitute

    u = Y * (X ** 2 + 2)
    v = 2 * X - X ** 3
    w = -4 * X * Y
    g = chord_cubic_generic(
        MultiPoly.const(-3), MultiPoly.const(2), MultiPoly.const(1)
    )
    big = g.evaluate((u, v, w))
    f_spec = X ** 3 - 3 * X ** 2 + 2 * X
    reduced = MultiPoly.zero()
    for (ex, ey, ea, eb), coeff in big.terms.items():
        assert (ea, eb) == (0, 0)
        half, rem = divmod(ey, 2)
        reduced = reduced + MultiPoly({(ex, rem, 0, 0): coeff}) * f_spec ** half
    assert reduced.is_zero


def test_identity_mutation_fails():
    report = verify_identity_symbolic(mutate="identity_e_sign")
    assert report.status == "fail"
    assert report.witness


def test_unknown_mutation_rejected():
    with pytest.raises(ValueError):
        verify_chord_incidence_symbolic(mutate="nope")
    with pytest.raises(ValueError):
        verify_identity_symbolic(mutate="nope")
    with pytest.raises(ValueError):
        verify_quotient(validate_curve(0, -1), [5], mutate="nope")


def test_fibers_examples():
    report = verify_fibers(validate_curve(0, -1), 5)
    assert report.status == "pass" and report.stats["image_size"] == 4
    report = verify_fibers(validate_curve(-3, 2), 7)
    assert report.status == "pass" and report.stats["image_size"] == 4


def test_fiber_of_the_degenerate_line():
    params = reduce_params(validate_curve(-3, 2), 7)
    x_zero_line = DualPoint((params.scalar(1), params.scalar(0), params.scalar(0)))
    special = [q for q in enumerate_points(params, 7) if chord_map(q) == x_zero_line]
    assert {str(q) for q in special} == {"[0:1:0]", "[0:0:1]"}
    assert beta(params) in special


def test_fibers_rejects_singular_reduction():
    with pytest.raises(ValueError):
        verify_fibers(validate_curve(3, 1), 5)


def test_flex_correspondence_passes():
    assert verify_flex_correspondence(validate_curve(-3, 2), 7).status == "pass"
    assert verify_flex_correspondence(validate_curve(-3, 2), 101).status == "pass"
    assert verify_flex_correspondence(validate_curve(0, 4), 5).status == "pass"


def test_flex_correspondence_skipped_without_rational_gamma():
    report = verify_flex_correspondence(validate_curve(0, 4), 7)
    assert report.status == "skipped"
    assert "no root" in report.witness


def test_chord_of_zero_is_not_a_flex():
    from chordcubic.chord import chord_cubic

    params = reduce_params(validate_curve(-3, 2), 7)
    cubic_flexes = {DualPoint(t) for t in find_flexes_over_Fp(chord_cubic(params), 7)}
    zero_image = chord_map(enumerate_points(params, 7)[0])
    assert zero_image == DualPoint((params.scalar(1), params.scalar(0), params.scalar(0)))
    assert zero_image not in cubic_flexes


def test_quotient_symbolic_and_counts():
    report = verify_quotient(validate_curve(0, -1), [5])
    assert report.status == "pass"
    assert report.stats["counts"] == {5: 8}


def test_quotient_mutation_fails():
    report = verify_quotient(validate_curve(0, -1), [5], mutate="quotient_b_coeff")
    assert report.status == "fail"
    assert "residual" in report.witness


def test_quotient_skips_bad_primes():
    report = verify_quotient(validate_curve(3, 1), [5, 7])  # a^2 - 4b = 5
    assert report.status == "pass"
    assert report.stats["counts"][5] == "skipped"
    assert isinstance(report.stats["counts"][7], int)


def test_quotient_params_always_valid():
    for a, b in [(-3, 2), (0, 4), (3, 1)]:
        quotient_params(validate_curve(a, b))


def test_quotient_point_counts_match_group_order():
    # Isogenous curves have the same number of rational points.
    for a, b, p in [(-3, 2, 101), (0, 4, 101)]:
        params = reduce_params(validate_curve(a, b), p)
        assert len(enumerate_points(quotient_params(params), p)) == len(
            enumerate_points(params, p)
        )


def test_degree_remark_beta_case_passes():
    report = verify_degree_remark(validate_curve(-3, 2), 101, 2)
    assert report.status == "pass"
    assert report.stats["image_degree"] == 3
    assert report.stats["image_size"] == 52


def test_degree_remark_skipped_without_order():
    report = verify_degree_remark(validate_curve(-3, 2), 101, 5)  # group order 104
    assert report.status == "skipped"


def test_degree_remark_records_the_forced_collision():
    # The strict singleton-fiber clause can never hold: O, T and -T are
    # always collinear, so the fiber over the line x = x(T) has two points.
    report = verify_degree_remark(validate_curve(-3, 2), 101, 4)
    assert report.status == "fail"
    assert "not a singleton" in report.witness
    assert report.stats["image_degree"] == 6
    assert report.stats["image_size"] == 103


def test_degree_remark_rejects_tiny_order():
    with pytest.raises(ValueError):
        verify_degree_remark(validate_curve(-3, 2), 101, 1)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
def test_translation_search_matches_the_full_order_search(p, monkeypatch):
    # The oracle is the search by full point orders (repeated addition),
    # with each point's order computed once per curve.
    field = PrimeField(p)
    for a in range(p):
        for b in range(1, p):
            if (a * a - 4 * b) % p == 0:
                continue
            params = validate_curve(field(a), field(b))
            order_of = {q: point_order(q) for q in enumerate_points(params, p)}

            def first_point_of_order(points, order):
                return next((q for q in points if order_of[q] == order), None)

            for order in range(2, p + 2 + isqrt(4 * p)):
                fast = verify_degree_remark(params, p, order)
                assert (fast.status == "skipped") == (order not in order_of.values())
                with monkeypatch.context() as patched:
                    patched.setattr(verify, "_translation_point", first_point_of_order)
                    slow = verify_degree_remark(params, p, order)
                assert fast.to_dict(include_millis=False) == slow.to_dict(include_millis=False)


@pytest.mark.parametrize("a,b,order", [(-6, -3, 6), (-2, -3, 5), (-3, 2, 4)])
def test_translation_chord_true_structure(a, b, order):
    # What actually holds: fibers have size at most 2, the doubled fibers
    # are exactly {w - T, w} for 3-torsion w, and the image is a sextic.
    from chordcubic.chord import line_through
    from chordcubic.plane import min_interpolating_degree

    params = reduce_params(validate_curve(a, b), 101)
    points = enumerate_points(params, 101)
    t_pt = next(q for q in points if point_order(q) == order)
    fibers = {}
    for q in points:
        fibers.setdefault(
            line_through(q.coords, group_add(q, t_pt).coords), []
        ).append(q)
    torsion3 = [q for q in points if scalar_mul(3, q).is_infinity]
    doubled = [f for f in fibers.values() if len(f) == 2]
    assert max(len(f) for f in fibers.values()) == 2
    assert len(doubled) == len(torsion3)
    assert len(fibers) == len(points) - len(torsion3)
    neg_t = scalar_mul(-1, t_pt)
    for fiber in doubled:
        w = next(q for q in fiber if scalar_mul(3, q).is_infinity)
        assert set(fiber) == {w, group_add(w, neg_t)}
    found = min_interpolating_degree([line.coords for line in fibers])
    assert found.degree == 6 and found.nullity == 1


def test_cross_checks_pass():
    assert verify_cross_checks(validate_curve(-3, 2), 101).status == "pass"
    assert verify_cross_checks(validate_curve(0, 4), 7).status == "pass"


def test_run_full_suite_passes_and_is_deterministic():
    first = run_full_suite(validate_curve(-3, 2), 101)
    second = run_full_suite(validate_curve(-3, 2), 101)
    assert [r.claim for r in first] == [
        "chord_line_incidence",
        "image_cubic_identity",
        "cross_module_consistency",
        "fibers_two_to_one",
        "flex_correspondence",
        "quotient_two_isogeny",
    ]
    assert all(r.status == "pass" for r in first)
    assert [r.to_dict(include_millis=False) for r in first] == [
        r.to_dict(include_millis=False) for r in second
    ]


def test_run_full_suite_non_split_curve():
    reports = run_full_suite(validate_curve(0, 4), 101)
    assert all(r.status in ("pass", "skipped") for r in reports)


def test_run_full_suite_rejects_singular_reduction():
    with pytest.raises(ValueError):
        run_full_suite(validate_curve(3, 1), 5)


def test_report_shape():
    report = Report("claim", "pass", "", {"points_checked": 1, "millis": 2.0})
    payload = report.to_dict(include_millis=False)
    assert payload == {
        "claim": "claim",
        "status": "pass",
        "witness": "",
        "stats": {"points_checked": 1},
    }
    failed = verify_chord_incidence_symbolic(mutate="incidence_v_sign")
    assert failed.status == "fail" and failed.witness != ""


def test_lcg_is_reproducible():
    a = list(zip(range(5), lcg_stream(1)))
    b = list(zip(range(5), lcg_stream(1)))
    assert a == b
    assert next(lcg_stream(1)) == (1664525 * 1 + 1013904223) % 2 ** 32


def test_sample_params_deterministic_and_valid():
    first = sample_params(101, 20, seed=1)
    second = sample_params(101, 20, seed=1)
    assert [(str(c.a), str(c.b)) for c in first] == [
        (str(c.a), str(c.b)) for c in second
    ]
    assert len(first) == 20
    for params in first:
        assert params.b != 0 and params.a * params.a - 4 * params.b != 0
