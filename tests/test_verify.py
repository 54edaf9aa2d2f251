import io
import json
from contextlib import redirect_stdout
from fractions import Fraction
from math import isqrt
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from chordcubic import chord, plane, verify
from chordcubic.chord import (
    DualPoint,
    TernaryForm,
    chord_cubic,
    chord_cubic_generic,
    chord_map,
    chords_mod_p,
    cross_mod_p,
    cubic_invariants,
    line_through,
    normalize_mod_p,
)
from chordcubic.curve import (
    CurveParams,
    CurvePoint,
    add_mod_p,
    affine_points_mod_p,
    beta,
    enumerate_points,
    group_add,
    negate,
    point_order,
    reduce_params,
    scalar_mul,
    three_torsion_flexes,
    translate_by_beta,
    translates_mod_p,
    two_torsion_points,
    validate_curve,
)
from chordcubic.plane import (
    MinDegree,
    _reduced,
    evaluate_form,
    find_flexes_over_Fp,
    min_interpolating_degree,
    monomials,
)
from chordcubic.scalars import PrimeField, PrimeFieldScalar
from chordcubic.cli import main
from chordcubic.verify import (
    FpContext,
    Report,
    lcg_stream,
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
from fp_strategies import curves
from oracles import (
    chord_mod_p,
    chord_table,
    cross_witness_by_point,
    dual_incidence,
    fiber_witness_by_point,
    translate_mod_p,
    translate_table,
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
    # The golden corpus never fails a symbolic claim, so these pinned
    # witnesses are the only check on the coefficients the polynomials print.
    report = verify_chord_incidence_symbolic(mutate="incidence_v_sign")
    assert report.status == "fail"
    assert report.witness == "nonzero incidence residual: 2·x^3·y"


def test_identity_symbolic_passes():
    report = verify_identity_symbolic()
    assert report.status == "pass"


def test_identity_specializes_to_zero():
    # Substitute a = -3, b = 2 into G(U(x,y), V(x,y), W(x,y)) and reduce by
    # the specialized relation y^2 = x^3 - 3x^2 + 2x: still the zero poly.
    from chordcubic.chord import chord_cubic_generic
    from chordcubic.poly import MultiPoly, X, Y

    u = Y * (X ** 2 + 2)
    v = 2 * X - X ** 3
    w = -4 * X * Y
    g = chord_cubic_generic(MultiPoly.const(-3), MultiPoly.const(2))
    big = g.evaluate((u, v, w))
    f_spec = X ** 3 - 3 * X ** 2 + 2 * X
    reduced = MultiPoly()
    for (ex, ey, ea, eb), coeff in big.terms.items():
        assert (ea, eb) == (0, 0)
        half, rem = divmod(ey, 2)
        reduced = reduced + MultiPoly({(ex, rem, 0, 0): coeff}) * f_spec ** half
    assert reduced.is_zero


def test_f_p_claims_run_the_proved_chord_formula(monkeypatch):
    # The chord formula with the incidence_v_sign mutation, V = b x + x^3:
    # the F_p claims read their chords from chord_triple, so they fail with
    # the symbolic incidence.
    def mutated(x, y, b):
        return y * (x * x + b), b * x + x ** 3, -2 * b * x * y

    monkeypatch.setattr(chord, "chord_triple", mutated)
    monkeypatch.setattr(verify, "chord_triple", mutated)
    ctx = FpContext(validate_curve(-3, 2), 101)
    reports = [verify_cross_checks(ctx), verify_fibers(ctx)]
    assert [r.status for r in [verify_chord_incidence_symbolic(), *reports]] == ["fail"] * 3


def test_identity_mutation_fails():
    report = verify_identity_symbolic(mutate="identity_e_sign")
    assert report.status == "fail"
    assert report.witness == (
        "nonzero identity residual: 16·x^11·y·b^3 + 32·x^10·y·a·b^3"
        " + 16·x^9·y·a^2·b^3 + -32·x^8·y·a·b^4 + -32·x^7·y·a^2·b^4"
        " + -32·x^7·y·b^5 + -32·x^6·y·a·b^5 + 16·x^5·y·a^2·b^5"
        " + 32·x^4·y·a·b^6 + 16·x^3·y·b^7"
    )


def test_unknown_mutation_rejected():
    with pytest.raises(ValueError, match="unknown mutation 'nope'"):
        verify_chord_incidence_symbolic(mutate="nope")
    with pytest.raises(ValueError, match="unknown mutation 'nope'"):
        verify_identity_symbolic(mutate="nope")
    with pytest.raises(ValueError, match="unknown mutation 'nope'"):
        verify_quotient(validate_curve(0, -1), [5], mutate="nope")


def test_fibers_examples():
    report = verify_fibers(FpContext(validate_curve(0, -1), 5))
    assert report.status == "pass" and report.stats["image_size"] == 4
    report = verify_fibers(FpContext(validate_curve(-3, 2), 7))
    assert report.status == "pass" and report.stats["image_size"] == 4


def test_fiber_of_the_degenerate_line():
    params = reduce_params(validate_curve(-3, 2), 7)
    x_zero_line = DualPoint((params.scalar(1), params.scalar(0), params.scalar(0)))
    special = [q for q in enumerate_points(params, 7) if chord_map(q) == x_zero_line]
    assert {str(q) for q in special} == {"[0:1:0]", "[0:0:1]"}
    assert beta(params) in special


def test_fibers_rejects_singular_reduction():
    with pytest.raises(ValueError):
        verify_fibers(FpContext(validate_curve(3, 1), 5))


def test_flex_correspondence_passes():
    assert verify_flex_correspondence(FpContext(validate_curve(-3, 2), 7)).status == "pass"
    assert verify_flex_correspondence(FpContext(validate_curve(-3, 2), 101)).status == "pass"
    assert verify_flex_correspondence(FpContext(validate_curve(0, 4), 5)).status == "pass"


def test_flex_correspondence_skipped_without_rational_gamma():
    report = verify_flex_correspondence(FpContext(validate_curve(0, 4), 7))
    assert report.status == "skipped"
    assert "no root" in report.witness


def test_chord_of_zero_is_not_a_flex():
    from chordcubic.chord import chord_cubic

    params = reduce_params(validate_curve(-3, 2), 7)
    cubic_flexes = find_flexes_over_Fp(chord_cubic(params), 7)
    assert cubic_flexes
    zero_image = chord_map(enumerate_points(params, 7)[0])
    assert zero_image == DualPoint((params.scalar(1), params.scalar(0), params.scalar(0)))
    assert (1, 0, 0) not in cubic_flexes


def test_quotient_symbolic_and_counts():
    report = verify_quotient(validate_curve(0, -1), [5])
    assert report.status == "pass"
    assert report.stats["counts"] == {5: 8}


def test_quotient_mutation_fails():
    report = verify_quotient(validate_curve(0, -1), [5], mutate="quotient_b_coeff")
    assert report.status == "fail"
    assert "residual" in report.witness
    report = verify_quotient(validate_curve(-3, 2), [101], mutate="quotient_b_coeff")
    assert report.status == "fail"
    assert report.witness == "isogeny residual: -1·x^7·b + -1·x^6·a·b + -1·x^5·b^2"


def test_quotient_skips_bad_primes():
    report = verify_quotient(validate_curve(3, 1), [5, 7])  # a^2 - 4b = 5
    assert report.status == "pass"
    assert report.stats["counts"][5] == "skipped"
    assert isinstance(report.stats["counts"][7], int)


def test_quotient_rejects_a_curve_from_another_field():
    # Reducing an F_101 curve mod 103 is an error, not a bad prime to skip.
    params = reduce_params(validate_curve(-3, 2), 101)
    with pytest.raises(ValueError, match="parameters already live in F_101"):
        verify_quotient(params, [103])
    assert verify_quotient(params, [101]).stats["counts"] == {101: 104}


def test_quotient_params_always_valid():
    # E' = (-2a, a^2 - 4b) is smooth whenever E is.
    for a, b in [(-3, 2), (0, 4), (3, 1)]:
        params = validate_curve(a, b)
        CurveParams(-2 * params.a, params.a * params.a - 4 * params.b)


def test_quotient_point_counts_match_group_order():
    # Isogenous curves have the same number of rational points.
    for a, b, p in [(-3, 2, 101), (0, 4, 101)]:
        params = reduce_params(validate_curve(a, b), p)
        quotient = CurveParams(-2 * params.a, params.a * params.a - 4 * params.b)
        assert len(enumerate_points(quotient, p)) == len(enumerate_points(params, p))


def test_degree_remark_beta_case_passes():
    report = verify_degree_remark(validate_curve(-3, 2), 101, 2)
    assert report.status == "pass"
    assert report.stats["image_degree"] == 3
    assert report.stats["image_size"] == 52


def test_degree_remark_ties_the_order_2_image_to_the_image_cubic(monkeypatch):
    # With order 2 the kernel at degree 3 must be proportional to G mod p:
    # a scaled G still passes, another curve's cubic is refuted.
    params = validate_curve(-3, 2)
    cubic = chord_cubic_generic(-3 % 101, 2)
    tripled = TernaryForm(3, {key: 3 * c for key, c in cubic.coeffs.items()})
    monkeypatch.setattr(verify, "chord_cubic_generic", lambda a, b: tripled)
    assert verify_degree_remark(params, 101, 2).status == "pass"
    wrong = chord_cubic_generic(-3 % 101, 5)
    monkeypatch.setattr(verify, "chord_cubic_generic", lambda a, b: wrong)
    report = verify_degree_remark(params, 101, 2)
    assert report.status == "fail"
    assert report.witness == (
        "image interpolates at 1·U^2·W + 4·U·V^2 + 3·V^2·W + 50·W^3, "
        "not at the image cubic 1·U^2·W + 10·U·V^2 + 3·V^2·W + 20·W^3"
    )
    assert report.stats["image_degree"] == 3
    with redirect_stdout(io.StringIO()):
        assert main(["degree", "--a=-3", "--b=2", "--prime=101", "--order=2"]) == 1


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


def test_degree_remark_ranks_one_matrix_at_the_expected_degree(monkeypatch):
    # The 103 image lines of order 4 have nullity 1 at degree 6, which
    # certifies degree 6 with one rank of 28 columns.  The 2-point image of
    # (3, 4) mod 5 has nullity 8 at degree 3, so the ascending search runs
    # and still finds the line through both points.
    ncols = []
    rank = plane._rank_and_kernel_mod_p
    monkeypatch.setattr(
        plane, "_rank_and_kernel_mod_p", lambda blocks, p, n: ncols.append(n) or rank(blocks, p, n)
    )
    report = verify_degree_remark(validate_curve(-3, 2), 101, 4)
    assert (report.stats["image_degree"], ncols) == (6, [28])
    ncols.clear()
    report = verify_degree_remark(validate_curve(3, 4), 5, 2)
    assert (report.stats["image_size"], report.stats["image_degree"]) == (2, 1)
    assert ncols == [10, 3]


def test_degree_remark_normalizes_its_lines_together(monkeypatch):
    # One batch normalization per run over all #E(F_101) = 104 lines, and
    # coincident points (a zero cross product) are still refused.
    calls = []
    batch = verify.normalize_all_mod_p
    monkeypatch.setattr(
        verify, "normalize_all_mod_p", lambda lines, p: calls.append(len(lines)) or batch(lines, p)
    )
    for order in (2, 4):
        verify_degree_remark(validate_curve(-3, 2), 101, order)
    assert calls == [104, 104]
    monkeypatch.setattr(verify, "cross_mod_p", lambda s, t, p: (0, 0, 0))
    with pytest.raises(ValueError, match="no unique line: the points coincide"):
        verify_degree_remark(validate_curve(-3, 2), 101, 2)


def test_degree_remark_shifts_each_point_once(monkeypatch):
    # One add_mod_p per point of #E(F_101) = 104 for the lines and the
    # pairing together, in a whole `degree --order 2` request.
    calls = []
    add = verify.add_mod_p
    monkeypatch.setattr(verify, "add_mod_p", lambda *args: calls.append(args) or add(*args))
    with redirect_stdout(io.StringIO()):
        assert main(["degree", "--a=-3", "--b=2", "--prime=101", "--order=2"]) == 0
    assert len(calls) == 104


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

            def first_point_of_order(ctx, order):
                q = next((q for q in order_of if order_of[q] == order), None)
                return None if q is None else (q.x.value, q.y.value)

            for order in range(2, p + 2 + isqrt(4 * p)):
                fast = verify_degree_remark(params, p, order)
                assert (fast.status == "skipped") == (order not in order_of.values())
                with monkeypatch.context() as patched:
                    patched.setattr(verify, "_translation_point", first_point_of_order)
                    slow = verify_degree_remark(params, p, order)
                assert fast.to_dict() == slow.to_dict()


def _scalar_degree_remark(params, p, order) -> dict:
    """verify_degree_remark's report on curve points with scalar group_add.

    The exact path the int fibers replaced, kept as their oracle: T by
    scalar_mul and point_order over enumerate_points, fibers grouped by
    line_through(q, group_add(q, T)).
    """
    expected_degree = 3 if order == 2 else 6
    points = enumerate_points(reduce_params(params, p), p)

    def report(status, witness, **stats):
        return {
            "claim": "translation_degree",
            "status": status,
            "witness": witness,
            "stats": stats,
        }

    t_pt = None
    if len(points) % order == 0:
        t_pt = next(
            (
                q
                for q in points
                if scalar_mul(order, q).is_infinity and point_order(q) == order
            ),
            None,
        )
    if t_pt is None:
        return report("skipped", f"no point of order {order} mod {p}", points_checked=0)
    fibers = {}
    for q in points:
        fibers.setdefault(line_through(q.coords, group_add(q, t_pt).coords), []).append(q)
    witness = ""
    for line, fiber in fibers.items():
        q = fiber[0]
        paired = set(fiber) == {q, group_add(q, t_pt)}
        if (order == 2 and not paired) or (order > 2 and len(fiber) != 1):
            witness = f"fiber of {line} is {[str(v) for v in fiber]}"
            witness += ", not a singleton" if order > 2 else ""
            break
    if not witness and order > 2 and len(fibers) < 31:
        witness = f"only {len(fibers)} image points"
    found = min_interpolating_degree([line.coords for line in fibers], p=p)
    degree = found.degree if found else None
    if degree != expected_degree:
        witness = witness or (
            f"image interpolates at degree {degree}, expected {expected_degree}"
        )
    return report(
        "fail" if witness else "pass",
        witness,
        points_checked=len(points),
        order=order,
        translation=str(t_pt),
        image_size=len(fibers),
        image_degree=degree,
    )


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_degree_remark_matches_the_scalar_path(p):
    # Every smooth curve mod p and every order up to the Hasse bound.
    field = PrimeField(p)
    verdicts = set()
    for a in range(p):
        for b in range(1, p):
            if (a * a - 4 * b) % p == 0:
                continue
            params = validate_curve(field(a), field(b))
            for order in range(2, p + 2 + isqrt(4 * p)):
                expected = _scalar_degree_remark(params, p, order)
                assert verify_degree_remark(params, p, order).to_dict() == expected
                verdicts.add((order == 2, expected["status"]))
    assert {(True, "fail"), (False, "fail"), (False, "skipped")} <= verdicts
    # At p = 5 the order-2 image has at most 5 points, which lie on a conic.
    assert ((True, "pass") in verdicts) == (p > 5)


_TRUE_STRUCTURE_CASES = [
    (-6, -3, 101, 6, 3),
    (-2, -3, 101, 5, 3),
    (-3, 2, 101, 4, 1),
    (-6, -6, 101, 3, 3),
    (-6, 4, 103, 3, 9),
]


@pytest.mark.parametrize(
    "a,b,p,order,n3",
    _TRUE_STRUCTURE_CASES,
    ids=[f"{a}-{b}-{order}" for a, b, _, order, _ in _TRUE_STRUCTURE_CASES],
)
def test_translation_chord_true_structure(a, b, p, order, n3):
    # What actually holds: the non-singleton fibers are the lines through
    # w - T, w and w + T for the n3 points w of E[3](F_p), and the image is
    # a sextic.  For order > 3 they are the pairs {w - T, w} and the image
    # has #E - #E[3] points; for order 3, T is in E[3], they are the cosets
    # w + <T> of size 3 and the image has #E - 2 #E[3]/3 points.  All of
    # E[3] is rational only when p = 1 mod 3, so n3 = 9 is at p = 103.
    params = reduce_params(validate_curve(a, b), p)
    points = enumerate_points(params, p)
    t_pt = next(q for q in points if point_order(q) == order)
    fibers = {}
    for q in points:
        fibers.setdefault(
            line_through(q.coords, group_add(q, t_pt).coords), []
        ).append(q)
    torsion3 = [q for q in points if scalar_mul(3, q).is_infinity]
    assert len(torsion3) == n3
    neg_t = scalar_mul(-1, t_pt)
    shifts = (neg_t, t_pt) if order == 3 else (neg_t,)
    forced = {frozenset([w, *(group_add(w, s) for s in shifts)]) for w in torsion3}
    assert {frozenset(f) for f in fibers.values() if len(f) > 1} == forced
    image_size = len(points) - (2 * n3 // 3 if order == 3 else n3)
    assert len(fibers) == image_size
    report = verify_degree_remark(validate_curve(a, b), p, order)
    assert report.stats["image_size"] == image_size
    assert (report.status, report.stats["image_degree"]) == ("fail", 6)
    found = min_interpolating_degree([line.coords for line in fibers], p=p)
    assert found.degree == 6 and found.nullity == 1


def test_cross_checks_pass():
    assert verify_cross_checks(FpContext(validate_curve(-3, 2), 101)).status == "pass"
    assert verify_cross_checks(FpContext(validate_curve(0, 4), 7)).status == "pass"


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
    assert [r.to_dict() for r in first] == [r.to_dict() for r in second]


def test_run_full_suite_non_split_curve():
    reports = run_full_suite(validate_curve(0, 4), 101)
    assert all(r.status in ("pass", "skipped") for r in reports)


def test_run_full_suite_rejects_singular_reduction():
    with pytest.raises(ValueError):
        run_full_suite(validate_curve(3, 1), 5)


def test_report_shape():
    report = Report("claim", "pass", "", {"points_checked": 1, "millis": 2.0})
    payload = report.to_dict()
    assert payload == {
        "claim": "claim",
        "status": "pass",
        "witness": "",
        "stats": {"points_checked": 1},
    }
    failed = verify_chord_incidence_symbolic(mutate="incidence_v_sign")
    assert failed.status == "fail" and failed.witness != ""


def test_records_keep_their_reprs_equality_and_hash():
    params = validate_curve(-3, 2)
    pp = reduce_params(params, 101)
    report = Report("chord_line_incidence", "pass", "", {"points_checked": 2})
    reprs = [
        repr(params),
        repr(pp),
        repr(report),
        repr(cubic_invariants(params)),
        repr(MinDegree(3, 1, (1, 2))),
    ]
    assert reprs == [
        "CurveParams(a=Fraction(-3, 1), b=Fraction(2, 1))",
        "CurveParams(a=PrimeFieldScalar(98, 101), b=PrimeFieldScalar(2, 101))",
        "Report(claim='chord_line_incidence', status='pass', witness='', "
        "stats={'points_checked': 2})",
        "CubicInvariants(e=Fraction(-64, 1), c1=Fraction(24, 1), "
        "c2=Fraction(-16, 1), mu_inv=Fraction(-3, 4))",
        "MinDegree(degree=3, nullity=1, kernel=(1, 2))",
    ]

    for name in ("a", "c"):
        with pytest.raises(AttributeError):
            setattr(params, name, Fraction(1))
    twin = validate_curve(Fraction(-6, 2), 2)
    assert twin == params and twin is not params and hash(twin) == hash(params)
    assert len({params, twin, pp}) == 2
    # _replace and _make validate too.
    with pytest.raises(ValueError, match="beta degenerate"):
        params._replace(b=Fraction(0))
    with pytest.raises(ValueError, match="double root"):
        type(params)._make((Fraction(2), Fraction(1)))

    assert MinDegree(3, 1).kernel is None


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


def _scalar_cross_witness(pp, p, **ops) -> str:
    """The per-point loop of verify_cross_checks run on curve points.

    This is the scalar path the int loop replaced, kept as its oracle; any
    step can be swapped through ``ops``.
    """
    translate = ops.get("translate", translate_by_beta)
    add = ops.get("add", group_add)
    chord = ops.get("chord", chord_map)
    line_of = ops.get("line", line_through)
    incident = ops.get("incident", dual_incidence)
    cubic = chord_cubic(pp)
    on_g = ops.get("on_g", lambda line: evaluate_form(cubic, line.coords) == 0)
    b_pt = beta(pp)
    for q in enumerate_points(pp, p):
        shifted = translate(q)
        if shifted != add(q, b_pt):
            return f"translation formula disagrees at {q}"
        if translate(shifted) != q:
            return f"translation is not an involution at {q}"
        line = chord(q)
        if line != chord(shifted):
            return f"chord map does not factor at {q}"
        if q != shifted and line != line_of(q.coords, shifted.coords):
            return f"chord of {q} is not the two-point line"
        if not (incident(q, line) and incident(shifted, line)):
            return f"chord of {q} misses an endpoint"
        if not on_g(line):
            return f"chord {line} of {q} is off the image cubic"
    return ""


def _scalar_fiber_witness(pp, p, chord=chord_map) -> str:
    """verify_fibers' verdict on curve points, with the chord map swappable."""
    points = enumerate_points(pp, p)
    fibers = {}
    for q in points:
        fibers.setdefault(chord(q), []).append(q)
    if len(points) % 2 or len(fibers) != len(points) // 2:
        return f"image has {len(fibers)} lines for {len(points)} points"
    for line, fiber in fibers.items():
        q = fiber[0]
        if set(fiber) != {q, translate_by_beta(q)}:
            return f"fiber of {line} is {[str(v) for v in fiber]}"
    return ""


def _wrong_at(right, hit, wrong):
    """``right`` with its result replaced by ``wrong(*args)`` wherever ``hit(*args)``."""
    return lambda *args: wrong(*args) if hit(*args) else right(*args)


def _wrong_chords(movers, line):
    """chords_mod_p with the chord of each int pair in ``movers`` replaced by ``line``."""
    return lambda b, p, points: [
        line if s in movers else right for s, right in zip(points, chords_mod_p(b, p, points))
    ]


def _wrong_translates(mover, to):
    """translates_mod_p with the entry of the int pair ``mover`` set to the index of ``to``."""
    return lambda b, p, points: [
        points.index(to) if s == mover else j
        for s, j in zip(points, translates_mod_p(b, p, points))
    ]


WITNESS_PRIME = 101


def _fault_target():
    """The curve (-3, 2) mod 101 and its first affine point T off the x-axis."""
    pp = reduce_params(validate_curve(-3, 2), WITNESS_PRIME)
    target = next(q for q in enumerate_points(pp, WITNESS_PRIME)[2:] if q.y != 0)
    return pp, target, (target.x.value, target.y.value)


def _cross_faults(pp, T, t):
    """Fault name -> (int-kernel patches of verify, scalar ops, witness prefix)."""
    unit_line = DualPoint((pp.scalar(1), pp.scalar(0), pp.scalar(0)))
    t_line = chord_mod_p(pp.b.value, WITNESS_PRIME, t)
    t_triple = (*t, 1)
    shifted_triple = tuple(c.value for c in translate_by_beta(T).coords)

    def negated_sum(a, b, p, s, u):
        x, y = add_mod_p(a, b, p, s, u)
        return x, -y % p

    return {
        "translation against the group law": (
            {
                "add_mod_p": _wrong_at(
                    add_mod_p, lambda a, b, p, s, u: s == t, negated_sum
                )
            },
            {
                "add": _wrong_at(
                    group_add, lambda q, r: q == T, lambda q, r: negate(group_add(q, r))
                )
            },
            f"translation formula disagrees at {T}",
        ),
        "involution": (
            {"translates_mod_p": _wrong_translates((0, 0), (0, 0))},
            {
                "translate": _wrong_at(
                    translate_by_beta, lambda q: q == beta(pp), lambda q: q
                )
            },
            "translation is not an involution at [0:1:0]",
        ),
        "factoring": (
            {"chords_mod_p": _wrong_chords({t}, (1, 0, 0))},
            {"chord": _wrong_at(chord_map, lambda q: q == T, lambda q: unit_line)},
            "chord map does not factor at ",
        ),
        "two-point line": (
            {
                "cross_mod_p": _wrong_at(
                    cross_mod_p,
                    lambda s, u, p: {s, u} == {t_triple, shifted_triple},
                    lambda s, u, p: (1, 0, 0),
                )
            },
            {
                "line": _wrong_at(
                    line_through, lambda s, u: s == T.coords, lambda s, u: unit_line
                )
            },
            f"chord of {T} is not the two-point line",
        ),
        "missed endpoint": (
            {
                "_incident": _wrong_at(
                    verify._incident, lambda pt, line, p: pt == t_triple, lambda *_: False
                )
            },
            {
                "incident": _wrong_at(
                    dual_incidence, lambda q, line: q == T, lambda *_: False
                )
            },
            "chord of ",
        ),
        "off-G": (
            {
                "chord_cubic_generic": lambda a, b: SimpleNamespace(
                    evaluate=_wrong_at(
                        chord_cubic_generic(a, b).evaluate,
                        lambda line: line == t_line,
                        lambda line: 1,
                    )
                )
            },
            {"on_g": lambda line: line != chord_map(T)},
            "chord [",
        ),
    }


@pytest.mark.parametrize(
    "fault",
    [
        "translation against the group law",
        "involution",
        "factoring",
        "two-point line",
        "missed endpoint",
        "off-G",
    ],
)
def test_cross_check_witness_matches_the_scalar_path(fault, monkeypatch):
    pp, T, t = _fault_target()
    int_patches, scalar_ops, prefix = _cross_faults(pp, T, t)[fault]
    expected = _scalar_cross_witness(pp, WITNESS_PRIME, **scalar_ops)
    assert expected.startswith(prefix)
    for name, fn in int_patches.items():
        monkeypatch.setattr(verify, name, fn)
    report = verify_cross_checks(FpContext(pp, WITNESS_PRIME))
    assert (report.status, report.witness) == ("fail", expected)


def test_cross_check_passes_where_the_scalar_path_passes():
    pp, _, _ = _fault_target()
    assert _scalar_cross_witness(pp, WITNESS_PRIME) == ""
    assert verify_cross_checks(FpContext(pp, WITNESS_PRIME)).witness == ""


def _second_member_faults(pp, T):
    """Faults at S = T + beta, the second member of T's pair, as in :func:`_cross_faults`."""
    S = translate_by_beta(T)
    s = (S.x.value, S.y.value)
    s_triple = (*s, 1)
    unit_line = DualPoint((pp.scalar(1), pp.scalar(0), pp.scalar(0)))

    def negated_sum(a, b, p, q, u):
        x, y = add_mod_p(a, b, p, q, u)
        return x, -y % p

    return {
        "translation against the group law": (
            {"add_mod_p": _wrong_at(add_mod_p, lambda a, b, p, q, u: q == s, negated_sum)},
            {
                "add": _wrong_at(
                    group_add, lambda q, r: q == S, lambda q, r: negate(group_add(q, r))
                )
            },
            f"translation formula disagrees at {S}",
        ),
        "involution": (
            {"translates_mod_p": _wrong_translates(s, s)},
            {"translate": _wrong_at(translate_by_beta, lambda q: q == S, lambda q: q)},
            f"translation is not an involution at {T}",
        ),
        "factoring": (
            {"chords_mod_p": _wrong_chords({s}, (1, 0, 0))},
            {"chord": _wrong_at(chord_map, lambda q: q == S, lambda q: unit_line)},
            f"chord map does not factor at {T}",
        ),
        "two-point line": (
            {
                "cross_mod_p": _wrong_at(
                    cross_mod_p, lambda q, u, p: s_triple in (q, u), lambda q, u, p: (1, 0, 0)
                )
            },
            {
                "line": _wrong_at(
                    line_through, lambda q, u: S.coords in (q, u), lambda q, u: unit_line
                )
            },
            f"chord of {T} is not the two-point line",
        ),
        "missed endpoint": (
            {
                "_incident": _wrong_at(
                    verify._incident, lambda pt, line, p: pt == s_triple, lambda *_: False
                )
            },
            {"incident": _wrong_at(dual_incidence, lambda q, line: q == S, lambda *_: False)},
            f"chord of {T} misses an endpoint",
        ),
    }


@pytest.mark.parametrize(
    "fault",
    ["translation against the group law", "involution", "factoring", "two-point line", "missed endpoint"],
)
def test_cross_check_witness_at_the_second_member_matches_the_scalar_path(fault, monkeypatch):
    # T comes before T + beta in enumeration order, so the pair checks run
    # at T; a fault at T + beta must still give the scalar path's witness.
    pp, T, t = _fault_target()
    points = [None] + affine_points_mod_p(pp.a.value, pp.b.value, WITNESS_PRIME)
    assert points.index(t) < points.index(translate_mod_p(pp.b.value, WITNESS_PRIME, t))
    int_patches, scalar_ops, expected_witness = _second_member_faults(pp, T)[fault]
    expected = _scalar_cross_witness(pp, WITNESS_PRIME, **scalar_ops)
    assert expected == expected_witness
    for name, fn in int_patches.items():
        monkeypatch.setattr(verify, name, fn)
    report = verify_cross_checks(FpContext(pp, WITNESS_PRIME))
    assert (report.status, report.witness) == ("fail", expected)


def _loops_match_the_oracles(ctx):
    """The cross-checks and the fibers give the witness of the oracle loop on ctx's lists."""
    points, p = ctx.points, ctx.p
    translates = {q: (p, 0) if j is None else points[j] for q, j in zip(points, ctx.translates)}
    chords = dict(zip(points, ctx.chords))
    expected = cross_witness_by_point(ctx.a, ctx.b, p, chord_cubic(ctx.pp), translates, chords)
    assert verify_cross_checks(ctx).witness == expected
    assert verify_fibers(ctx).witness == fiber_witness_by_point(translates, chords)


def _lists_and_loops_match_the_oracles(ctx):
    """The context's lists hold translate_mod_p and chord_mod_p of each point, and the loops match."""
    points, p = ctx.points, ctx.p
    assert [points[j] for j in ctx.translates] == list(translate_table(ctx.b, p, points).values())
    assert ctx.chords == list(chord_table(ctx.b, p, points).values())
    _loops_match_the_oracles(ctx)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_list_tables_and_loops_match_the_point_keyed_oracles(data):
    # With one translate, one chord or the chord of one pair then replaced at
    # random, the loops still match the oracle loop.
    a, b, p = data.draw(curves())
    ctx = FpContext(validate_curve(a, b), p)
    _lists_and_loops_match_the_oracles(ctx)
    points = ctx.points
    translates, chords = list(ctx.translates), list(ctx.chords)
    kind = data.draw(st.sampled_from(["translate", "chord", "pair chord"]))
    i = data.draw(st.integers(0, len(points) - 1))
    if kind == "translate":
        translates[i] = data.draw(st.none() | st.integers(0, len(points) - 1))
    else:
        residue = st.integers(0, p - 1)
        line = normalize_mod_p(data.draw(st.tuples(residue, residue, residue).filter(any)), p)
        for k in [i] if kind == "chord" else [i, translates[i]]:
            chords[k] = line
    ctx.translates, ctx.chords = translates, chords
    _loops_match_the_oracles(ctx)


@pytest.mark.parametrize("a, b", [(-3, 2), (-5, 1)])
def test_lists_and_loops_match_the_point_keyed_oracles_at_the_largest_prime(a, b):
    _lists_and_loops_match_the_oracles(FpContext(validate_curve(a, b), 65521))


@pytest.mark.parametrize("fault", ["unpaired fiber", "too few lines"])
def test_fiber_witness_matches_the_scalar_path(fault, monkeypatch):
    pp, T, _ = _fault_target()
    p = WITNESS_PRIME
    shifted = translate_by_beta(T)
    # A point outside T's fiber whose chord T (and, for too few lines, T + beta) takes.
    other = next(
        q for q in enumerate_points(pp, p)[2:] if q not in (T, shifted) and q.y != 0
    )
    movers = {T} if fault == "unpaired fiber" else {T, shifted}
    mover_pairs = {(q.x.value, q.y.value) for q in movers}
    other_line = chord_map(other)
    monkeypatch.setattr(
        verify,
        "chords_mod_p",
        _wrong_chords(mover_pairs, tuple(c.value for c in other_line.coords)),
    )
    expected = _scalar_fiber_witness(
        pp, p, _wrong_at(chord_map, lambda q: q in movers, lambda q: other_line)
    )
    assert expected.startswith("fiber of " if fault == "unpaired fiber" else "image has ")
    report = verify_fibers(FpContext(pp, p))
    assert (report.status, report.witness) == ("fail", expected)


@pytest.mark.parametrize("a,b,p", [(-3, 2, 31), (1, 3, 7), (2, 5, 13)])
def test_int_witness_text_matches_the_scalar_printers(a, b, p):
    # The witnesses print int triples; curve points, dual points and forms
    # with prime-field coefficients stay the oracle of that text.
    pp = reduce_params(validate_curve(a, b), p)
    points = [None] + affine_points_mod_p(pp.a.value, pp.b.value, p)
    for s in points:
        triple = verify._triple(s)
        assert verify._bracket(triple) == str(CurvePoint(pp, triple))
    for line in chords_mod_p(pp.b.value, p, points):
        assert verify._bracket(line) == str(DualPoint(line))
    table = _reduced(chord_cubic(pp), p).coeffs
    g = [table.get(m, 0) for m in monomials(3)]
    for coeffs in (g, verify.normalize_mod_p(g, p)):
        scalars = {m: PrimeFieldScalar(c, p) for m, c in zip(monomials(3), coeffs)}
        assert verify._cubic_str(coeffs) == str(TernaryForm(3, scalars))
    assert verify._cubic_str(g) == str(chord_cubic(pp))


def _count_calls(monkeypatch, calls, source, name):
    """Count in ``calls`` each call of ``source.name``, also through verify's binding."""
    original = getattr(source, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    calls[name] = 0
    for module in (source, verify):
        monkeypatch.setattr(module, name, wrapper, raising=False)


def test_suite_enumerates_no_curve_points_and_finds_the_3_torsion_once(monkeypatch):
    from chordcubic import curve

    calls = {}
    # verify binds no enumerate_points: its points come from FpContext, and
    # three_torsion_flexes takes the roots of psi3, not a scan of E(F_p).
    for name in ("enumerate_points", "three_torsion_flexes"):
        _count_calls(monkeypatch, calls, curve, name)
    reports = run_full_suite(validate_curve(-3, 2), 1019)
    assert all(r.status == "pass" for r in reports)
    assert reports[4].stats["flexes"] == 3  # three rational 3-torsion points
    assert calls == {"enumerate_points": 0, "three_torsion_flexes": 1}


def test_suite_translates_and_chords_each_point_once(monkeypatch):
    from chordcubic import chord, curve

    # The per-point translate and chord are test oracles only; the suite
    # builds each list once, by one batch inversion.
    assert not hasattr(chord, "chord_mod_p") and not hasattr(curve, "translate_mod_p")
    calls = {}
    for source, name in [
        (curve, "affine_points_mod_p"),
        (curve, "translates_mod_p"),
        (chord, "chords_mod_p"),
        (curve, "three_torsion_flexes"),
    ]:
        _count_calls(monkeypatch, calls, source, name)
    params = validate_curve(-3, 2)
    reports = run_full_suite(params, 1019)
    assert all(r.status == "pass" for r in reports)
    # One enumeration of E(F_p) for the context, one of E'(F_p) for the quotient.
    suite = {
        "affine_points_mod_p": 2,
        "translates_mod_p": 1,
        "chords_mod_p": 1,
        "three_torsion_flexes": 1,
    }
    assert calls == suite
    # The flex claim reads only the context's 3-torsion: it enumerates nothing.
    assert verify_flex_correspondence(FpContext(params, 1019)).status == "pass"
    assert calls == {**suite, "three_torsion_flexes": 2}
    # The degree remark builds its own context, enumerates it once per call
    # and never builds its translates, chords or 3-torsion.
    for order in (2, 4):
        verify_degree_remark(params, 1019, order)
    assert calls == {**suite, "affine_points_mod_p": 4, "three_torsion_flexes": 2}


def test_the_symbolic_claims_prove_the_chord_formula_that_chord_map_runs(monkeypatch):
    from chordcubic import chord

    pp = reduce_params(validate_curve(-3, 2), 101)
    q = next(q for q in enumerate_points(pp, 101)[1:] if q.x.value and q.y.value)
    line = chord_map(q)
    formula = chord.chord_triple

    def wrong_v(x, y, b):
        u, _, w = formula(x, y, b)
        return u, b * x + x ** 3, w

    for module in (chord, verify):
        monkeypatch.setattr(module, "chord_triple", wrong_v)
    assert chord_map(q) != line
    report = verify_chord_incidence_symbolic()
    assert verify_identity_symbolic().status == "fail"
    monkeypatch.undo()
    # The wrong V is the incidence_v_sign mutation, so its witness is the same.
    mutated = verify_chord_incidence_symbolic(mutate="incidence_v_sign")
    assert (report.status, report.witness) == ("fail", mutated.witness)


SPLIT = (-3, 2, 1019)  # three rational 3-torsion points and full 2-torsion


def _split_curve():
    a, b, p = SPLIT
    pp = reduce_params(validate_curve(a, b), p)
    torsion3 = three_torsion_flexes(pp, p)
    assert len(torsion3) == 3
    return pp, p, torsion3


def _hasse_fault(monkeypatch):
    pp, p, _ = _split_curve()
    ctx = FpContext(pp, p)
    ctx.points = ctx.points[:-1]
    report = verify_cross_checks(ctx)
    return report, f"point count {len(ctx.points)} violates the Hasse window"


def _singular_fault(monkeypatch):
    pp, p, _ = _split_curve()
    monkeypatch.setattr(verify, "smooth_over_Fp", lambda form, p: False)
    return verify_cross_checks(FpContext(pp, p)), "image cubic is singular"


def _weierstrass_fault(monkeypatch):
    pp, p, torsion3 = _split_curve()
    ctx = FpContext(pp, p)
    ctx.torsion3 = torsion3[:-1]
    report = verify_cross_checks(ctx)
    return report, "Weierstrass flexes differ from the 3-torsion"


def _count_fault(monkeypatch):
    pp, p, _ = _split_curve()
    true_count = verify.count_zero_points_over_Fp(chord_cubic(pp), p)
    monkeypatch.setattr(verify, "count_zero_points_over_Fp", lambda form, p: true_count + 1)
    report = verify_quotient(pp, [p])
    return report, f"p={p}: image cubic has {true_count + 1} points, quotient curve has {true_count}"


def _flex_set_fault(monkeypatch):
    pp, p, torsion3 = _split_curve()
    gamma = two_torsion_points(pp)[2]
    lost = chord_map(group_add(torsion3[-1], gamma))
    ctx = FpContext(pp, p)
    ctx.torsion3 = torsion3[:-1]
    report = verify_flex_correspondence(ctx)
    return report, f"flex sets disagree on {[str(lost)]}"


@pytest.mark.parametrize(
    "force",
    [_hasse_fault, _singular_fault, _weierstrass_fault, _count_fault, _flex_set_fault],
    ids=["hasse window", "singular image", "weierstrass flexes", "point count", "flex sets"],
)
def test_every_suite_fail_branch_reports_its_witness(force, monkeypatch):
    report, witness = force(monkeypatch)
    assert (report.status, report.witness) == ("fail", witness)


def _cli(*argv):
    with redirect_stdout(io.StringIO()) as out:
        code = main(list(argv))
    return code, json.loads(out.getvalue())["reports"][0]


def test_a_forced_count_mismatch_exits_1(monkeypatch):
    _, witness = _count_fault(monkeypatch)
    code, report = _cli("quotient", "--a", "-3", "--b", "2", "--prime", "1019")
    assert (code, report["status"], report["witness"]) == (1, "fail", witness)


def test_chords_off_the_image_cubic_fail_the_flex_claim(monkeypatch):
    def off_g(q):
        u, v, w = chord_map(q).coords
        return DualPoint((u + 1, v + 1, w))

    pp, p, torsion3 = _split_curve()
    moved = str(off_g(group_add(torsion3[1], two_torsion_points(pp)[2])))
    monkeypatch.setattr(verify, "chord_map", off_g)
    code, report = _cli("flexes", "--a", "-3", "--b", "2", "--prime", "1019")
    assert (code, report["status"]) == (1, "fail")
    assert report["witness"].startswith("flex sets disagree on [")
    assert repr(moved) in report["witness"]
