"""Claim-level verification suite with structured pass/fail reports.

Each operation checks one statement about the chord construction and
returns a :class:`Report` carrying a stable claim tag, a status of
``pass``/``fail``/``skipped``, a witness string for any failure, and basic
statistics.  Symbolic checks are exact polynomial identities over the
rationals; numeric checks enumerate rational points over small prime
fields.  The ``mutate`` hooks deliberately perturb a target formula so the
regression suite can confirm each check actually has teeth.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import isqrt

from . import poly
from .chord import (
    DualPoint,
    chord_cubic,
    chord_cubic_generic,
    chord_map,
    line_through,
    weierstrass_form,
)
from .curve import (
    CurveParams,
    CurvePoint,
    beta,
    enumerate_points,
    group_add,
    point_order,
    reduce_params,
    scalar_mul,
    three_torsion_flexes,
    translate_by_beta,
    two_torsion_points,
    validate_curve,
)
from .plane import (
    count_zero_points_over_Fp,
    dual_incidence,
    evaluate_form,
    find_flexes_over_Fp,
    is_flex,
    min_interpolating_degree,
    smooth_over_Fp,
)
from .poly import MultiPoly, reduce_mod_curve
from .scalars import PrimeField, check_modulus

CLAIM_INCIDENCE = "chord_line_incidence"
CLAIM_IDENTITY = "image_cubic_identity"
CLAIM_CROSS = "cross_module_consistency"
CLAIM_FIBERS = "fibers_two_to_one"
CLAIM_FLEX = "flex_correspondence"
CLAIM_QUOTIENT = "quotient_two_isogeny"
CLAIM_DEGREE = "translation_degree"

PASS, FAIL, SKIPPED = "pass", "fail", "skipped"


@dataclass
class Report:
    """Outcome of one verification: a failed check always carries a witness."""

    claim: str
    status: str
    witness: str = ""
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status in (PASS, SKIPPED)

    def to_dict(self, include_millis: bool = True) -> dict:
        stats = dict(self.stats)
        if not include_millis:
            stats.pop("millis", None)
        return {
            "claim": self.claim,
            "status": self.status,
            "witness": self.witness,
            "stats": stats,
        }


def _report(claim, ok, witness, started, checked, **extra) -> Report:
    stats = {"points_checked": checked, "millis": round((time.monotonic() - started) * 1000, 3)}
    stats.update(extra)
    return Report(claim, PASS if ok else FAIL, "" if ok else witness, stats)


def _skip(claim, reason, started, **extra) -> Report:
    stats = {"points_checked": 0, "millis": round((time.monotonic() - started) * 1000, 3)}
    stats.update(extra)
    return Report(claim, SKIPPED, reason, stats)


def _chord_polys(mutate=None):
    x, y, b = poly.X, poly.Y, poly.B
    u = y * (x ** 2 + b)
    v = b * x - x ** 3
    w = -2 * b * x * y
    if mutate == "incidence_v_sign":
        v = b * x + x ** 3
    elif mutate is not None:
        raise ValueError(f"unknown mutation {mutate!r}")
    return u, v, w


def verify_chord_incidence_symbolic(mutate: str | None = None) -> Report:
    """The chord line passes through both p and p + beta, identically.

    Checked as two polynomial identities in {x, y, a, b} with no use of
    the curve relation: U x + V y + W = 0, and the same incidence at the
    translated point after clearing x^2.  ``mutate="incidence_v_sign"``
    flips the sign of the x^3 term of V, which must break both.
    """
    started = time.monotonic()
    x, y, b = poly.X, poly.Y, poly.B
    u, v, w = _chord_polys(mutate)
    residuals = [
        u * x + v * y + w,
        b * x * u - b * y * v + x ** 2 * w,
    ]
    bad = next((r for r in residuals if not r.is_zero), None)
    return _report(
        CLAIM_INCIDENCE,
        bad is None,
        f"nonzero incidence residual: {bad}",
        started,
        len(residuals),
    )


def verify_identity_symbolic(mutate: str | None = None) -> Report:
    """The image cubic vanishes identically on the chord locus.

    Substitutes the chord coordinates into the cleared cubic G and reduces
    modulo y^2 - f(x); additionally checks the cross-multiplied form of
    the depressed-ratio identity that pins e = -8 b^3 / (a^2 - 4b).
    ``mutate="identity_e_sign"`` flips the sign of e in the ratio check.
    """
    started = time.monotonic()
    if mutate not in (None, "identity_e_sign"):
        raise ValueError(f"unknown mutation {mutate!r}")
    x, y, a, b = poly.X, poly.Y, poly.A, poly.B
    u, v, w = _chord_polys()
    g = chord_cubic_generic(a, b, MultiPoly.const(1))
    main_residual = reduce_mod_curve(g.evaluate((u, v, w)))

    f = poly.f_curve()
    t = 2 * b * u - a * w
    lhs = ((4 * b - a ** 2) * w ** 3 - 2 * a * t * w ** 2 - t ** 2 * w) * f
    rhs = 4 * b ** 2 * y ** 2 * t * v ** 2
    sign = -1 if mutate == "identity_e_sign" else 1
    ratio_residual = reduce_mod_curve(lhs - sign * rhs)

    bad = next((r for r in (main_residual, ratio_residual) if not r.is_zero), None)
    return _report(
        CLAIM_IDENTITY,
        bad is None,
        f"nonzero identity residual: {bad}",
        started,
        2,
    )


def verify_fibers(params: CurveParams, p: int) -> Report:
    """Every chord-map fiber over F_p is a pair {q, q + beta}."""
    started = time.monotonic()
    points = enumerate_points(params, p)
    fibers: dict[DualPoint, list[CurvePoint]] = {}
    for q in points:
        fibers.setdefault(chord_map(q), []).append(q)
    witness = ""
    ok = len(points) % 2 == 0 and len(fibers) == len(points) // 2
    if not ok:
        witness = f"image has {len(fibers)} lines for {len(points)} points"
    else:
        for line, fiber in fibers.items():
            q = fiber[0]
            if set(fiber) != {q, translate_by_beta(q)}:
                ok = False
                witness = f"fiber of {line} is {[str(v) for v in fiber]}"
                break
    return _report(
        CLAIM_FIBERS, ok, witness, started, len(points), image_size=len(fibers)
    )


def verify_flex_correspondence(params: CurveParams, p: int) -> Report:
    """Flexes of the image cubic are the chords of 3-torsion translates.

    Needs full rational 2-torsion mod p so that a translation gamma with
    gamma != beta exists; otherwise the check is skipped.  Each translate
    q + gamma of a 3-torsion point q must map to a flex of the image
    cubic, and every F_p-rational flex of the image cubic must arise that
    way.
    """
    started = time.monotonic()
    pp = reduce_params(params, p)
    torsion2 = two_torsion_points(pp)
    if len(torsion2) < 4:
        return _skip(CLAIM_FLEX, f"x^2 + a x + b has no root mod {p}", started)
    b_pt = beta(pp)
    gammas = [t for t in torsion2 if not t.is_infinity and t != b_pt]
    torsion3 = three_torsion_flexes(pp, p)
    cubic = chord_cubic(pp)
    expected = set()
    for q in torsion3:
        for gamma in gammas:
            expected.add(chord_map(group_add(q, gamma)))
    ok, witness = True, ""
    for line in sorted(expected, key=str):
        if not is_flex(cubic, line.coords):
            ok, witness = False, f"translate image {line} is not a flex"
            break
    if ok:
        found = {DualPoint(t) for t in find_flexes_over_Fp(cubic, p)}
        if found != expected:
            ok = False
            extra = {str(t) for t in found ^ expected}
            witness = f"flex sets disagree on {sorted(extra)}"
    return _report(
        CLAIM_FLEX,
        ok,
        witness,
        started,
        len(torsion3) * len(gammas),
        flexes=len(expected),
    )


def quotient_params(params: CurveParams) -> CurveParams:
    """The 2-isogenous curve (-2a, a^2 - 4b); valid whenever params is."""
    a, b = params.a, params.b
    return CurveParams(-2 * a, a * a - 4 * b)


def verify_quotient(params: CurveParams, primes, mutate: str | None = None) -> Report:
    """The image curve is the quotient by beta, via the degree-2 isogeny.

    Symbolically: (x, y) -> (y^2/x^2, y (x^2 - b)/x^2) lands on
    Y^2 = X^3 - 2a X^2 + (a^2 - 4b) X, checked after clearing x^6 and
    reducing modulo the curve.  Numerically: the F_p point count of the
    image cubic equals that of the isogenous curve at each usable prime
    (primes where the reduction is singular are skipped).
    ``mutate="quotient_b_coeff"`` replaces a^2 - 4b by a^2 - 3b.
    """
    started = time.monotonic()
    if mutate not in (None, "quotient_b_coeff"):
        raise ValueError(f"unknown mutation {mutate!r}")
    x, y, a, b = poly.X, poly.Y, poly.A, poly.B
    shift = 3 if mutate == "quotient_b_coeff" else 4
    b_image = a ** 2 - shift * b
    residual = reduce_mod_curve(
        y ** 2 * (x ** 2 - b) ** 2 * x ** 2
        - y ** 6
        + 2 * a * y ** 4 * x ** 2
        - b_image * y ** 2 * x ** 4
    )
    ok = residual.is_zero
    witness = "" if ok else f"isogeny residual: {residual}"

    checked = 0
    counts = {}
    if ok:
        for p in primes:
            check_modulus(p)
            try:
                pp = reduce_params(params, p)
            except (ValueError, ZeroDivisionError):
                counts[p] = "skipped"
                continue
            image_count = count_zero_points_over_Fp(chord_cubic(pp), p)
            isogenous = len(enumerate_points(quotient_params(pp), p))
            counts[p] = image_count
            checked += 1
            if image_count != isogenous:
                ok = False
                witness = (
                    f"p={p}: image cubic has {image_count} points, "
                    f"quotient curve has {isogenous}"
                )
                break
    return _report(CLAIM_QUOTIENT, ok, witness, started, checked, counts=counts)


def _translation_point(points: list, order: int) -> CurvePoint | None:
    """The first of the points with exactly the given order, or None.

    ``points`` is all of E(F_p); see verify_degree_remark for the filters.
    """
    if len(points) % order:
        return None
    return next(
        (
            q
            for q in points
            if scalar_mul(order, q).is_infinity and point_order(q) == order
        ),
        None,
    )


def verify_degree_remark(
    params: CurveParams, p: int, order: int, dmax: int = 8
) -> Report:
    """Fiber sizes and image degree of the order-n translation chord map.

    For a point T of the requested order, every q in E(F_p) is sent to
    the line through q and q + T.  With order 2 the expected behaviour is
    the chord construction itself: fibers {q, q + T} and an image of
    minimal interpolating degree 3.  With order > 2 the check asserts
    singleton fibers and minimal degree 6 over at least 31 image points.
    The singleton clause is refuted on every curve: O, T and -T lie on
    the line x = x(T), so the fiber over [1:0:-x(T)] is {O, -T} and the
    report is ``fail`` with that fiber as witness.  In general
    line(q, q + T) = line(q', q' + T) with q != q' forces 3q = O and
    q' = q - T, so the image has exactly #E - #E[3] points.

    T is the first point of that order in enumeration order.  The check is
    skipped when no point has that order, at once when the order does not
    divide #E (Lagrange).  Otherwise one scalar_mul per point keeps the q
    with n q = O, and point_order, at most n - 1 additions each, runs only
    on those.  Raises ValueError, before any point is enumerated, for an
    order below 2 or above the Hasse bound p + 1 + 2 sqrt(p), and for
    ``dmax`` outside 1..8.
    """
    started = time.monotonic()
    if order < 2:
        raise ValueError("translation order must be at least 2")
    if not 1 <= dmax <= 8:
        raise ValueError(f"dmax must lie in 1..8, got {dmax}")
    pp = reduce_params(params, p)
    hasse = p + 1 + isqrt(4 * p)
    if order > hasse:
        raise ValueError(
            f"no point has order {order} mod {p}: #E <= {hasse} by the Hasse bound"
        )
    points = enumerate_points(pp, p)
    t_pt = _translation_point(points, order)
    if t_pt is None:
        return _skip(CLAIM_DEGREE, f"no point of order {order} mod {p}", started)

    fibers: dict[DualPoint, list[CurvePoint]] = {}
    for q in points:
        line = line_through(q.coords, group_add(q, t_pt).coords)
        fibers.setdefault(line, []).append(q)

    ok, witness = True, ""
    if order == 2:
        expected_degree = 3
        for line, fiber in fibers.items():
            q = fiber[0]
            if set(fiber) != {q, group_add(q, t_pt)}:
                ok = False
                witness = f"fiber of {line} is {[str(v) for v in fiber]}"
                break
    else:
        expected_degree = 6
        for line, fiber in fibers.items():
            if len(fiber) != 1:
                ok = False
                witness = (
                    f"fiber of {line} is {[str(v) for v in fiber]}, not a singleton"
                )
                break
        if ok and len(fibers) < 31:
            ok, witness = False, f"only {len(fibers)} image points"

    found = min_interpolating_degree([line.coords for line in fibers], dmax=dmax)
    degree = found.degree if found else None
    if degree != expected_degree:
        ok = False
        witness = witness or (
            f"image interpolates at degree {degree}, expected {expected_degree}"
        )
    return _report(
        CLAIM_DEGREE,
        ok,
        witness,
        started,
        len(points),
        order=order,
        translation=str(t_pt),
        image_size=len(fibers),
        image_degree=degree,
    )


def verify_cross_checks(params: CurveParams, p: int) -> Report:
    """Point-by-point consistency scan tying the modules together.

    Over all of E(F_p): the closed-form translation agrees with the group
    law and is an involution, the chord map factors through it and matches
    the two-point line oracle, both endpoints lie on the chord, and every
    chord satisfies the image cubic.  The point count must sit in the
    Hasse window and be even; the image cubic must be smooth; the flexes
    of the curve's own Weierstrass cubic must be exactly the 3-torsion.
    """
    started = time.monotonic()
    pp = reduce_params(params, p)
    points = enumerate_points(pp, p)
    count = len(points)
    ok, witness = True, ""

    drift = count - (p + 1)
    if drift * drift > 4 * p or count % 2:
        ok, witness = False, f"point count {count} violates the Hasse window"

    b_pt = beta(pp)
    cubic = chord_cubic(pp)
    if ok:
        for q in points:
            shifted = translate_by_beta(q)
            if shifted != group_add(q, b_pt):
                ok, witness = False, f"translation formula disagrees at {q}"
                break
            if translate_by_beta(shifted) != q:
                ok, witness = False, f"translation is not an involution at {q}"
                break
            line = chord_map(q)
            if line != chord_map(shifted):
                ok, witness = False, f"chord map does not factor at {q}"
                break
            if q != shifted and line != line_through(q.coords, shifted.coords):
                ok, witness = False, f"chord of {q} is not the two-point line"
                break
            if not (dual_incidence(q, line) and dual_incidence(shifted, line)):
                ok, witness = False, f"chord of {q} misses an endpoint"
                break
            if evaluate_form(cubic, line.coords) != 0:
                ok, witness = False, f"chord {line} of {q} is off the image cubic"
                break
    if ok and not smooth_over_Fp(cubic, p):
        ok, witness = False, "image cubic is singular"
    if ok:
        flexes = {DualPoint(t) for t in find_flexes_over_Fp(weierstrass_form(pp), p)}
        torsion3 = {DualPoint(q.coords) for q in three_torsion_flexes(pp, p)}
        if flexes != torsion3:
            ok = False
            witness = "Weierstrass flexes differ from the 3-torsion"
    return _report(CLAIM_CROSS, ok, witness, started, count, curve_points=count)


def run_full_suite(params: CurveParams, p: int) -> list:
    """All checks keyed on (params, p), in fixed claim order."""
    reduce_params(params, p)
    return [
        verify_chord_incidence_symbolic(),
        verify_identity_symbolic(),
        verify_cross_checks(params, p),
        verify_fibers(params, p),
        verify_flex_correspondence(params, p),
        verify_quotient(params, [p]),
    ]


def lcg_stream(seed: int):
    """Deterministic 32-bit linear congruential generator.

    state -> (1664525 * state + 1013904223) mod 2^32, yielding each new
    state; fixed constants make batch runs reproducible everywhere.
    """
    state = seed & 0xFFFFFFFF
    while True:
        state = (1664525 * state + 1013904223) & 0xFFFFFFFF
        yield state


def sample_params(p: int, count: int, seed: int = 1) -> list:
    """Pseudo-random valid curves over F_p from the documented generator."""
    check_modulus(p)
    field_p = PrimeField(p)
    rng = lcg_stream(seed)
    out = []
    while len(out) < count:
        a = next(rng) % p
        b = next(rng) % p
        if b and (a * a - 4 * b) % p:
            out.append(validate_curve(field_p(a), field_p(b)))
    return out
