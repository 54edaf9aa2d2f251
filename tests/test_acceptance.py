"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every check is exact (zero tolerance); the stated runtime budgets are
asserted against the wall clock.  Run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the per-criterion lines while passing).
"""

import time
from fractions import Fraction

from chordcubic.chord import (
    chord_cubic,
    chord_cubic_generic,
    chord_map,
    cubic_invariants,
)
from chordcubic.curve import (
    beta,
    enumerate_points,
    group_add,
    reduce_params,
    scalar_mul,
    three_torsion_flexes,
    translate_by_beta,
    two_torsion_points,
    validate_curve,
)
from chordcubic.plane import (
    evaluate_form,
    hessian_cubic,
    is_flex,
    min_interpolating_degree,
    smooth_over_Fp,
)
from chordcubic.poly import A, B
from chordcubic.verify import (
    sample_params,
    verify_chord_incidence_symbolic,
    verify_degree_remark,
    verify_identity_symbolic,
    verify_quotient,
)


def _line(number, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_symbolic_main_identity():
    started = time.monotonic()
    report = verify_identity_symbolic()
    elapsed = time.monotonic() - started
    ok = report.status == "pass" and elapsed < 10
    _line(1, ok, f"status={report.status}, {elapsed:.2f}s (< 10s)")
    assert ok, report


def test_criterion_2_symbolic_incidence():
    started = time.monotonic()
    report = verify_chord_incidence_symbolic()
    elapsed = time.monotonic() - started
    ok = report.status == "pass" and elapsed < 1
    _line(2, ok, f"status={report.status}, {elapsed:.3f}s (< 1s)")
    assert ok, report


def test_criterion_3_closed_form_invariants():
    # Independent oracle: direct substitution into the closed forms.
    def oracle(a, b):
        a, b = Fraction(a), Fraction(b)
        return (
            Fraction(-8) * b ** 3 / (a * a - 4 * b),
            4 * a * b / (4 * b - a * a),
            4 * b * b / (4 * b - a * a),
            a / (2 * b),
        )

    expected = {
        (3, 1): (Fraction(-8, 5), Fraction(-12, 5), Fraction(-4, 5), Fraction(3, 2)),
        (0, 1): (Fraction(2), Fraction(0), Fraction(1), Fraction(0)),
        (-3, 2): (Fraction(-64), Fraction(24), Fraction(-16), Fraction(-3, 4)),
    }
    ok = True
    for (a, b), want in expected.items():
        inv = cubic_invariants(validate_curve(a, b))
        got = (inv.e, inv.c1, inv.c2, inv.mu_inv)
        if got != want or oracle(a, b) != want:
            ok = False
            break
    _line(3, ok, f"e/c1/c2/muInv exact on {sorted(expected)}")
    assert ok


def test_criterion_4_embedding_at_desk_scale():
    started = time.monotonic()
    curves = sample_params(101, 20, seed=1)
    failures = []
    for params in curves:
        points = enumerate_points(params, 101)
        cubic = chord_cubic(params)
        fibers = {}
        for q in points:
            fibers.setdefault(chord_map(q), []).append(q)
        if any(evaluate_form(cubic, line.coords) != 0 for line in fibers):
            failures.append((params, "image off the cubic"))
            continue
        bad_fiber = False
        b_pt = beta(params)
        for fiber in fibers.values():
            q = fiber[0]
            expected = {q, translate_by_beta(q)}
            if set(fiber) != expected or expected != {q, group_add(q, b_pt)}:
                bad_fiber = True
        if bad_fiber:
            failures.append((params, "fiber is not {q, q+beta}"))
            continue
        if len(fibers) != len(points) // 2:
            failures.append((params, "image size is not #E/2"))
            continue
        if not smooth_over_Fp(cubic, 101):
            failures.append((params, "image cubic singular"))
            continue
        found = min_interpolating_degree([line.coords for line in fibers], p=101)
        if found is None or (found.degree, found.nullity) != (3, 1):
            failures.append((params, f"interpolation gave {found}"))
    elapsed = time.monotonic() - started
    ok = not failures and len(curves) >= 20 and elapsed < 60
    _line(4, ok, f"{len(curves)} curves over F_101, {elapsed:.1f}s (< 60s), failures={failures}")
    assert ok, failures


def test_criterion_5_flex_theorem():
    # Symbolic: the Hessian of the image cubic vanishes at [0:1:0]
    # identically in a and b.
    generic = chord_cubic_generic(A, B)
    symbolic_zero = hessian_cubic(generic).evaluate((0, 1, 0)) == 0

    ok = symbolic_zero
    detail = [f"symbolic Hessian at [0:1:0] zero: {symbolic_zero}"]
    for p in (7, 101):
        params = reduce_params(validate_curve(-3, 2), p)
        cubic = chord_cubic(params)
        gammas = [
            t
            for t in two_torsion_points(params)
            if not t.is_infinity and t != beta(params)
        ]
        translates_ok = all(
            is_flex(cubic, chord_map(group_add(q, gamma)).coords)
            for q in three_torsion_flexes(params, p)
            for gamma in gammas
        )
        one, zero = params.scalar(1), params.scalar(0)
        zero_chord_not_flex = not is_flex(cubic, (one, zero, zero))
        ok = ok and translates_ok and zero_chord_not_flex
        detail.append(f"p={p}: translates flex={translates_ok}, [1:0:0] flex={not zero_chord_not_flex}")
    _line(5, ok, "; ".join(detail))
    assert ok


def test_criterion_6_quotient_identification():
    started = time.monotonic()
    curves = [(-3, 2), (0, -1), (0, 4), (3, 1), (1, -1)]
    primes = (101, 211, 409)
    reports = [verify_quotient(validate_curve(a, b), primes) for a, b in curves]
    ok = all(r.status == "pass" for r in reports) and all(
        isinstance(count, int)
        for r in reports
        for count in r.stats["counts"].values()
    )
    elapsed = time.monotonic() - started
    _line(6, ok, f"{len(curves)} curves at p in {primes}, {elapsed:.1f}s")
    assert ok, [r.to_dict() for r in reports if r.status != "pass"]


def _forced_fiber_witness(translation, p):
    x, y, _ = (int(c) for c in translation.strip("[]").split(":"))
    return f"fiber of [1:0:{-x % p}] is ['[0:1:0]', '[{x}:{-y % p}:1]'], not a singleton"


def test_criterion_7_degree_six_remark():
    # The remark: translating by T of order n > 2 instead of beta gives an
    # image of degree 6, not 3.  The order-n map is not injective: its
    # fibers of more than one point are the lines through w - T, w and
    # w + T with 3w = O.  For the orders 4, 5 and 6 checked here they are
    # the pairs {w - T, w}, so the image has exactly #E - #E[3] points
    # (over the algebraic closure these are the 9 nodes of a genus-1 plane
    # sextic).  For order 3 they are the cosets w + <T> of size 3 and the
    # image has #E - 2 #E[3]/3 points (tests/test_verify.py pins both).
    # The checker's singleton-fiber clause must therefore be refuted by
    # the forced fiber {O, -T}, while the degree-6 claim holds.  With at
    # least 31 image points the degree is pinned: a quintic meets an
    # irreducible sextic in at most 30 points.
    p = 101
    started = time.monotonic()
    curves = [(-3, 2), (-2, -3), (-6, -3)]
    results = []
    for order in (4, 5, 6):
        chosen = None
        for a, b in curves:
            report = verify_degree_remark(validate_curve(a, b), p, order)
            if report.status != "skipped":
                chosen = ((a, b), report)
                break
        assert chosen is not None, f"no sample curve has a point of order {order}"
        results.append((order, *chosen))
    beta_report = verify_degree_remark(validate_curve(-3, 2), p, 2)

    mismatches = []
    for order, (a, b), report in results:
        points = enumerate_points(reduce_params(validate_curve(a, b), p), p)
        torsion3 = sum(1 for q in points if scalar_mul(3, q).is_infinity)
        want_size = len(points) - torsion3
        want_witness = _forced_fiber_witness(report.stats["translation"], p)
        got = (
            report.status,
            report.stats["image_degree"],
            report.stats["image_size"],
            report.witness,
        )
        if got != ("fail", 6, want_size, want_witness) or want_size < 31:
            mismatches.append(
                f"order {order} on {(a, b)}: got {got}, "
                f"want ('fail', 6, {want_size}, {want_witness!r})"
            )
    elapsed = time.monotonic() - started
    ok = (
        elapsed < 120
        and beta_report.status == "pass"
        and beta_report.stats["image_degree"] == 3
        and not mismatches
    )
    detail = "; ".join(
        f"order {order} on {ab}: degree {report.stats['image_degree']}, "
        f"{report.stats['image_size']} of {report.stats['points_checked']} points, "
        f"singleton clause {report.status}"
        for order, ab, report in results
    )
    _line(
        7,
        ok,
        f"beta case {beta_report.status}, degree {beta_report.stats['image_degree']}; "
        f"{detail}; {elapsed:.1f}s (< 120s)",
    )
    assert ok, (
        "degree-six remark (image degree 6, #E - #E[3] image points, "
        "forced fiber {O, -T}): " + "; ".join(mismatches)
    )


def test_criterion_8_mutation_sensitivity():
    baseline = [
        verify_chord_incidence_symbolic(),
        verify_identity_symbolic(),
        verify_quotient(validate_curve(-3, 2), [101]),
    ]
    mutated = [
        verify_chord_incidence_symbolic(mutate="incidence_v_sign"),
        verify_identity_symbolic(mutate="identity_e_sign"),
        verify_quotient(validate_curve(-3, 2), [101], mutate="quotient_b_coeff"),
    ]
    ok = all(r.status == "pass" for r in baseline) and all(
        r.status == "fail" and r.witness for r in mutated
    )
    _line(8, ok, f"mutations flip pass->fail: {[r.status for r in mutated]}")
    assert ok
