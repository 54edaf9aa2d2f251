"""Claim-level verification suite with structured pass/fail reports.

Each operation checks one statement about the chord construction and
returns a :class:`Report` carrying a stable claim tag, a status of
``pass``/``fail``/``skipped``, a witness string for any failure, and basic
statistics.  Symbolic checks are exact polynomial identities over the
rationals; the F_p checks run on the int residues of E(F_p), its chords
and the image cubic G at primes 3 < p < 2^16.  The ``mutate`` hooks
deliberately perturb a target formula so the regression suite can
confirm each check actually has teeth.
"""

from __future__ import annotations

import time
from collections import namedtuple
from functools import cached_property
from math import isqrt

from . import poly
from .chord import (
    TernaryForm,
    chord_cubic_generic,
    chord_map,
    chord_triple,
    chords_mod_p,
    cross_mod_p,
    normalize_all_mod_p,
    normalize_mod_p,
    weierstrass_form,
)
from .curve import (
    CurveParams,
    CurvePoint,
    _bracket,
    add_mod_p,
    affine_points_mod_p,
    group_add,
    point_order,
    reduce_params,
    scalar_mul_mod_p,
    three_torsion_flexes,
    translates_mod_p,
    two_torsion_points,
    validate_curve,
)
from .plane import (
    count_zero_points_over_Fp,
    find_flexes_over_Fp,
    min_interpolating_degree,
    monomials,
    smooth_over_Fp,
)
from .poly import reduce_mod_curve
from .scalars import PrimeField, check_modulus

CLAIM_INCIDENCE = "chord_line_incidence"
CLAIM_IDENTITY = "image_cubic_identity"
CLAIM_CROSS = "cross_module_consistency"
CLAIM_FIBERS = "fibers_two_to_one"
CLAIM_FLEX = "flex_correspondence"
CLAIM_QUOTIENT = "quotient_two_isogeny"
CLAIM_DEGREE = "translation_degree"

PASS, FAIL, SKIPPED = "pass", "fail", "skipped"


class Report(namedtuple("Report", "claim status witness stats")):
    """One check's outcome: a fail carries its witness, a pass '', a skip its reason."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.status in (PASS, SKIPPED)

    def to_dict(self) -> dict:
        """JSON form; the wall-clock ``millis`` is dropped so that it repeats."""
        stats = dict(self.stats)
        stats.pop("millis", None)
        return {**self._asdict(), "stats": stats}


def _stats(started, checked, extra: dict) -> dict:
    """Points checked and the wall-clock millis since ``started``, then ``extra``."""
    millis = round((time.monotonic() - started) * 1000, 3)
    return {"points_checked": checked, "millis": millis, **extra}


def _report(claim, witness, started, checked, **extra) -> Report:
    """A pass for the empty witness, else a fail that carries it."""
    stats = _stats(started, checked, extra)
    return Report(claim, FAIL if witness else PASS, witness, stats)


def _skip(claim, reason, started) -> Report:
    return Report(claim, SKIPPED, reason, _stats(started, 0, {}))


def _check_mutation(mutate, known: str) -> None:
    """Refuse a ``mutate`` hook other than None and the claim's ``known`` one."""
    if mutate not in (None, known):
        raise ValueError(f"unknown mutation {mutate!r}")


def _residual_witness(label: str, residuals) -> str:
    """'' when every residual is zero, else ``label`` and the first nonzero one."""
    bad = next((r for r in residuals if not r.is_zero), None)
    return "" if bad is None else f"{label}: {bad}"


def verify_chord_incidence_symbolic(mutate: str | None = None) -> Report:
    """The chord line passes through both p and p + beta, identically.

    Checked as two polynomial identities in {x, y, a, b} with no use of
    the curve relation: U x + V y + W = 0, and the same incidence at the
    translated point after clearing x^2.  ``mutate="incidence_v_sign"``
    flips the sign of the x^3 term of V, which must break both.
    """
    started = time.monotonic()
    _check_mutation(mutate, "incidence_v_sign")
    x, y, b = poly.X, poly.Y, poly.B
    u, v, w = chord_triple(x, y, b)
    if mutate == "incidence_v_sign":
        v = b * x + x ** 3
    residuals = [
        u * x + v * y + w,
        b * (x * u - y * v) + x * (x * w),
    ]
    witness = _residual_witness("nonzero incidence residual", residuals)
    return _report(CLAIM_INCIDENCE, witness, started, len(residuals))


def verify_identity_symbolic(mutate: str | None = None) -> Report:
    """The image cubic vanishes identically on the chord locus.

    Substitutes the chord coordinates into the cleared cubic G and reduces
    modulo y^2 - f(x); additionally checks the cross-multiplied form of
    the depressed-ratio identity that pins e = -8 b^3 / (a^2 - 4b).
    ``mutate="identity_e_sign"`` flips the sign of e in the ratio check.
    """
    started = time.monotonic()
    _check_mutation(mutate, "identity_e_sign")
    x, y, a, b = poly.X, poly.Y, poly.A, poly.B
    u, v, w = chord_triple(x, y, b)
    g = chord_cubic_generic(a, b)
    main_residual = reduce_mod_curve(g.evaluate((u, v, w)))

    t = 2 * b * u - a * w
    # ((4b - a^2) w^3 - 2a t w^2 - t^2 w) f, by Horner's rule in w.
    lhs = (((4 * b - a * a) * w - 2 * a * t) * w - t * t) * w * poly.F
    rhs = 4 * b * b * y * y * t * (v * v)
    sign = -1 if mutate == "identity_e_sign" else 1
    ratio_residual = reduce_mod_curve(lhs - sign * rhs)

    witness = _residual_witness(
        "nonzero identity residual", (main_residual, ratio_residual)
    )
    return _report(CLAIM_IDENTITY, witness, started, 2)


class FpContext:
    """E(F_p) on plain ints, shared by the F_p claims of one suite.

    ``FpContext(params, p)`` reduces the curve mod ``p``: ``pp`` is the
    reduced curve and ``a``, ``b`` its coefficients as residues.  The rest
    is built on first use: ``points`` is E(F_p) in enumeration order (None
    for O, then the affine points as int pairs (x, y)); ``translates`` and
    ``chords`` are lists aligned with it, ``translates[i]`` the index of
    ``points[i] + beta`` (None if the translate is not on the list) from
    ``translates_mod_p`` and ``chords[i]`` the normalized chord from
    ``chords_mod_p``, each built with one batch inversion; ``torsion3`` is
    ``three_torsion_flexes(pp, p)``.
    """

    def __init__(self, params: CurveParams, p: int):
        self.pp = reduce_params(params, p)
        self.p = p
        self.a, self.b = self.pp.a.value, self.pp.b.value

    @cached_property
    def points(self) -> list:
        return [None] + affine_points_mod_p(self.a, self.b, self.p)

    @cached_property
    def translates(self) -> list:
        return translates_mod_p(self.b, self.p, self.points)

    @cached_property
    def chords(self) -> list:
        return chords_mod_p(self.b, self.p, self.points)

    @cached_property
    def torsion3(self) -> list:
        return three_torsion_flexes(self.pp, self.p)


def _triple(s) -> tuple:
    """The normalized projective int triple of a pair (None for O)."""
    return (0, 1, 0) if s is None else (s[0], s[1], 1)


def _incident(pt, line, p: int) -> bool:
    """Whether the int point [X:Y:Z] lies on the int line U X + V Y + W Z = 0."""
    return (line[0] * pt[0] + line[1] * pt[1] + line[2] * pt[2]) % p == 0


def _fibers(lines: list) -> dict:
    """The indices of ``lines`` grouped by line, in order of first appearance."""
    fibers: dict = {}
    for i, line in enumerate(lines):
        fibers.setdefault(line, []).append(i)
    return fibers


def _fiber_str(line, fiber) -> str:
    """The text of a fiber witness: the int line and its int points."""
    return f"fiber of {_bracket(line)} is {[_bracket(_triple(v)) for v in fiber]}"


def _first_unpaired_fiber(fibers: dict, points: list, paired) -> str:
    """A witness for the first fiber (indices into ``points``) that ``paired`` rejects, else ''."""
    for line, fiber in fibers.items():
        if not paired(fiber):
            return _fiber_str(line, [points[i] for i in fiber])
    return ""


def verify_fibers(ctx: FpContext) -> Report:
    """Every chord-map fiber over F_p is a pair {q, q + beta}.

    Groups the indices of ``ctx.points`` by ``ctx.chords`` and checks that
    each fiber is {i, translates[i]} for its first index i, with the
    ``translates`` that the cross-checks check.
    """
    started = time.monotonic()
    points, translates = ctx.points, ctx.translates
    fibers = _fibers(ctx.chords)
    if len(points) % 2 == 0 and len(fibers) == len(points) // 2:
        witness = _first_unpaired_fiber(
            fibers, points, lambda fiber: set(fiber) == {fiber[0], translates[fiber[0]]}
        )
    else:
        witness = f"image has {len(fibers)} lines for {len(points)} points"
    return _report(CLAIM_FIBERS, witness, started, len(points), image_size=len(fibers))


def verify_flex_correspondence(ctx: FpContext) -> Report:
    """Flexes of the image cubic are the chords of 3-torsion translates.

    Needs full rational 2-torsion mod p so that a translation gamma with
    gamma != beta exists; otherwise the check is skipped.  Each translate
    q + gamma of a 3-torsion point q must map to a flex of the image
    cubic, and every F_p-rational flex of the image cubic must arise that
    way.  The 3-torsion is ``ctx.torsion3``; E(F_p) is never enumerated.
    """
    started = time.monotonic()
    pp, p = ctx.pp, ctx.p
    torsion2 = two_torsion_points(pp)
    if len(torsion2) < 4:
        return _skip(CLAIM_FLEX, f"x^2 + a x + b has no root mod {p}", started)
    gammas = torsion2[2:]  # after O and beta
    torsion3 = ctx.torsion3
    expected = set()
    for q in torsion3:
        for gamma in gammas:
            expected.add(tuple(c.value for c in chord_map(group_add(q, gamma)).coords))
    differ = set(find_flexes_over_Fp(chord_cubic_generic(ctx.a, ctx.b), p)) ^ expected
    witness = f"flex sets disagree on {sorted(map(_bracket, differ))}" if differ else ""
    return _report(
        CLAIM_FLEX, witness, started, len(torsion3) * len(gammas), flexes=len(expected)
    )


def verify_quotient(params: CurveParams, primes, mutate: str | None = None) -> Report:
    """The image curve is the quotient by beta, via the degree-2 isogeny.

    Symbolically: (x, y) -> (y^2/x^2, y (x^2 - b)/x^2) lands on
    Y^2 = X^3 - 2a X^2 + (a^2 - 4b) X, checked after clearing x^6 and
    reducing modulo the curve.  Numerically: at each usable prime (primes
    where the reduction is singular are skipped), the F_p point count of
    the image cubic G on the residues of a and b equals #E'(F_p), counted
    on the residues of (-2a, a^2 - 4b); E' is smooth whenever E is.
    ``mutate="quotient_b_coeff"`` replaces a^2 - 4b by a^2 - 3b.
    """
    started = time.monotonic()
    _check_mutation(mutate, "quotient_b_coeff")
    x, a, b = poly.X, poly.A, poly.B
    shift = 3 if mutate == "quotient_b_coeff" else 4
    b_image = a * a - shift * b
    # y^2 (x^2 - b)^2 x^2 - y^6 + 2a y^4 x^2 - b_image y^2 x^4, factored
    # through y^2 and x^2, with y^2 written as f: the same reduced residual.
    y2, x2 = poly.F, x * x
    d = x2 - b
    residual = reduce_mod_curve(y2 * (x2 * (d * d - b_image * x2) + y2 * (2 * a * x2 - y2)))
    witness = _residual_witness("isogeny residual", [residual])

    checked = 0
    counts = {}
    if not witness:
        for p in primes:
            check_modulus(p)
            try:
                ctx = FpContext(params, p)
            except (ValueError, ZeroDivisionError):
                if params.modulus is not None:  # another field, not a bad prime
                    raise
                counts[p] = "skipped"
                continue
            a_p, b_p = ctx.a, ctx.b
            image_count = count_zero_points_over_Fp(chord_cubic_generic(a_p, b_p), p)
            quotient = affine_points_mod_p(-2 * a_p % p, (a_p * a_p - 4 * b_p) % p, p)
            isogenous = 1 + len(quotient)
            counts[p] = image_count
            checked += 1
            if image_count != isogenous:
                witness = (
                    f"p={p}: image cubic has {image_count} points, "
                    f"quotient curve has {isogenous}"
                )
                break
    return _report(CLAIM_QUOTIENT, witness, started, checked, counts=counts)


def _cubic_str(coeffs) -> str:
    """The cubic form with residues mod p as coefficients, in monomials(3) order."""
    return str(TernaryForm(3, dict(zip(monomials(3), coeffs))))


def _translation_point(ctx: FpContext, order: int):
    """The int pair of the first point of exactly the given order, or None.

    Walks ``ctx.points`` in enumeration order, screens n q = O on ints and
    builds a curve point only for the order test of the survivors; see
    verify_degree_remark for the filters.
    """
    if len(ctx.points) % order:
        return None
    a, b, p = ctx.a, ctx.b, ctx.p
    for s in ctx.points:
        if scalar_mul_mod_p(a, b, p, order, s) is None and (
            point_order(CurvePoint(ctx.pp, _triple(s))) == order
        ):
            return s
    return None


def verify_degree_remark(params: CurveParams, p: int, order: int) -> Report:
    """Fiber sizes and image degree of the order-n translation chord map.

    For a point T of the requested order, every q in E(F_p) is sent to
    the line through q and q + T.  With order 2 the expected behaviour is
    the chord construction itself: fibers {q, q + T} and an image of
    minimal interpolating degree 3.  With order > 2 the check asserts
    singleton fibers and minimal degree 6 over at least 31 image points.
    The singleton clause is refuted on every curve: O, T and -T lie on
    the line x = x(T), so the fiber over [1:0:-x(T)] is {O, -T} (with T
    for order 3) and the report is ``fail`` with that fiber as witness.
    In general the fibers of more than one point are the lines through
    w - T, w and w + T with 3w = O: for order > 3 the pairs {w - T, w},
    so the image has exactly #E - #E[3] points; for order 3, T is in
    E[3], the fibers are the cosets w + <T> of size 3 and the image has
    #E - 2 #E[3]/3 points.

    E(F_p) is the int enumeration of an :class:`FpContext`, as in the
    suite, and the fibers group the points by the line through q and
    ``add_mod_p(q, T)``, computed once per point in a list aligned with the
    points: their cross products (``cross_mod_p``), all normalized by one
    inverse (``normalize_all_mod_p``).  A curve point is
    built only for the order test; witnesses print the int triples.  The
    image lines go to min_interpolating_degree with the expected degree as
    ``first``; being normalized int triples, they are not read again
    there.  An image that interpolates at ``first`` with nullity 1 is
    certified by that one rank; any other image gets the ascending search
    over degrees 1 to 8.  With order 2, T is beta and the image lies on
    the image cubic G, so a one-dimensional kernel at degree 3 must be
    proportional to G mod p; otherwise the report is ``fail`` with both
    forms as witness.

    T is the first point of that order in enumeration order.  The check is
    skipped when no point has that order, at once when the order does not
    divide #E (Lagrange).  Otherwise ``scalar_mul_mod_p`` on ints keeps the
    q with n q = O, and point_order, at most n - 1 additions each, runs
    only on those.  Raises ValueError, before any point is enumerated, for an
    order below 2 or above the Hasse bound p + 1 + 2 sqrt(p).
    """
    started = time.monotonic()
    if order < 2:
        raise ValueError("translation order must be at least 2")
    ctx = FpContext(params, p)
    hasse = p + 1 + isqrt(4 * p)
    if order > hasse:
        raise ValueError(
            f"no point has order {order} mod {p}: #E <= {hasse} by the Hasse bound"
        )
    a, b, points = ctx.a, ctx.b, ctx.points
    t = _translation_point(ctx, order)
    if t is None:
        return _skip(CLAIM_DEGREE, f"no point of order {order} mod {p}", started)

    shifts = [add_mod_p(a, b, p, s, t) for s in points]

    def paired(fiber):  # {q, q + T}, where q + T != q as T != O
        return len(fiber) == 2 and points[fiber[1]] == shifts[fiber[0]]

    crosses = [cross_mod_p(_triple(s), _triple(u), p) for s, u in zip(points, shifts)]
    if not all(map(any, crosses)):
        raise ValueError("no unique line: the points coincide")
    fibers = _fibers(normalize_all_mod_p(crosses, p))
    if order == 2:
        witness = _first_unpaired_fiber(fibers, points, paired)
    else:
        witness = _first_unpaired_fiber(fibers, points, lambda fiber: len(fiber) == 1)
        if witness:
            witness += ", not a singleton"
        elif len(fibers) < 31:
            witness = f"only {len(fibers)} image points"

    expected_degree = 3 if order == 2 else 6
    found = min_interpolating_degree(fibers.keys(), p=p, first=expected_degree)
    degree = found.degree if found else None
    if degree != expected_degree:
        witness = witness or (
            f"image interpolates at degree {degree}, expected {expected_degree}"
        )
    elif order == 2 and found.kernel is not None:
        table = chord_cubic_generic(a, b).coeffs
        g = [table.get(m, 0) % p for m in monomials(3)]
        kernel, cubic = normalize_mod_p(found.kernel, p), normalize_mod_p(g, p)
        if kernel != cubic:
            witness = witness or (
                f"image interpolates at {_cubic_str(kernel)}, "
                f"not at the image cubic {_cubic_str(cubic)}"
            )
    return _report(
        CLAIM_DEGREE,
        witness,
        started,
        len(points),
        order=order,
        translation=_bracket(_triple(t)),
        image_size=len(fibers),
        image_degree=degree,
    )


def _is_sum_with_beta(a: int, p: int, q, s) -> bool:
    """Whether the int pair s (None for O) is q + beta on E(F_p), with no inverse.

    O and beta go to each other.  Any other point q = (x, y) of E has
    x != 0, and q + beta = (x', y') is the third point of the chord through
    q and beta, negated: x + x' + a is the square of its slope y / x, and
    -s lies on it, so (x + x' + a) x^2 = y^2 and x y' + y x' = 0 mod p.
    Given q, these fix the residues of s.
    """
    if q is None:
        return s == (0, 0)
    if q == (0, 0):
        return s is None
    if s is None:
        return False
    (x, y), (u, v) = q, s
    return ((x + u + a) * x * x - y * y) % p == 0 and (x * v + y * u) % p == 0


def _first_point_fault(ctx: FpContext, g: TernaryForm) -> str:
    """The witness of the first point of ``ctx`` failing a per-point cross-check, else ''.

    At every point q: its listed translate against the group law by
    ``_is_sum_with_beta`` (a translate not on the list disagrees), the
    involution by index and the chord's factoring through the translate.
    That relation takes no inverse and reads the sum x + x' of the roots
    of the chord through q and beta, not their product x x' = b, which is
    the closed form of ``translates_mod_p`` under test.  The two-point
    line, the incidence of both endpoints and G (the int form ``g``) at
    the chord are checked once per pair {q, q + beta}, at its first member
    in enumeration order.
    Once the involution and the factoring hold there, the second member's
    translate is q and its chord is q's, and these checks are symmetric in
    the two points; so the first failing point and its witness are those
    of all six checks at every point.
    """
    a, p, points = ctx.a, ctx.p, ctx.points
    translates, chords = ctx.translates, ctx.chords
    for i, q in enumerate(points):
        j = translates[i]
        if j is None or not _is_sum_with_beta(a, p, q, points[j]):
            fault = "translation formula disagrees at {q}"
        elif translates[j] != i:
            fault = "translation is not an involution at {q}"
        elif chords[i] != chords[j]:
            fault = "chord map does not factor at {q}"
        elif j < i:
            continue
        else:
            line = chords[i]
            q3, s3 = _triple(q), _triple(points[j])
            cross = cross_mod_p(q3, s3, p)  # the two-point line, compared by 2x2 minors
            if i != j and (not any(cross) or any(cross_mod_p(cross, line, p))):
                fault = "chord of {q} is not the two-point line"
            elif not (_incident(q3, line, p) and _incident(s3, line, p)):
                fault = "chord of {q} misses an endpoint"
            elif g.evaluate(line) % p:
                fault = f"chord {_bracket(line)} of {{q}} is off the image cubic"
            else:
                continue
        return fault.format(q=_bracket(_triple(q)))
    return ""


def verify_cross_checks(ctx: FpContext) -> Report:
    """Point-by-point consistency scan tying the modules together.

    Over all of E(F_p): the closed-form translation agrees with the group
    law and is an involution, the chord map factors through it and matches
    the two-point line oracle, both endpoints lie on the chord, and every
    chord satisfies the image cubic.  The point count must sit in the
    Hasse window and be even; the image cubic must be smooth; the flexes
    of the curve's own Weierstrass cubic must be exactly the 3-torsion.

    The scan is one loop over the lists of ``ctx``.  At every point it
    checks ``translates`` against the chord-and-tangent relation between
    q = (x, y) and its translate (x', y'), (x + x' + a) x^2 = y^2 and
    x y' + y x' = 0 mod p, with no inverse and through the sum x + x', so
    that it never repeats the product x x' = b by which ``translates_mod_p``
    builds the list; it checks them as an involution by index, and
    ``chords`` for factoring by list equality.  Once per pair
    {q, q + beta} it checks the chord against ``cross_mod_p`` of q and
    q + beta, both endpoints and G at the chord
    (see ``_first_point_fault``).  Witnesses print the int triples.
    The 3-torsion is ``ctx.torsion3``; the flexes it is compared with come
    from the Hessian sweep, which never uses psi3.  The scalar functions
    stay the oracles of the int kernels.
    """
    started = time.monotonic()
    pp, p, points = ctx.pp, ctx.p, ctx.points
    count = len(points)
    witness = ""

    drift = count - (p + 1)
    if drift * drift > 4 * p or count % 2:
        witness = f"point count {count} violates the Hasse window"

    cubic = chord_cubic_generic(ctx.a, ctx.b)
    if not witness:
        witness = _first_point_fault(ctx, cubic)
    if not witness and not smooth_over_Fp(cubic, p):
        witness = "image cubic is singular"
    if not witness:
        flexes = set(find_flexes_over_Fp(weierstrass_form(pp), p))
        if flexes != {normalize_mod_p([c.value for c in q.coords], p) for q in ctx.torsion3}:
            witness = "Weierstrass flexes differ from the 3-torsion"
    return _report(CLAIM_CROSS, witness, started, count, curve_points=count)


def run_full_suite(params: CurveParams, p: int) -> list:
    """All checks keyed on (params, p), in fixed claim order.

    The three F_p claims share one :class:`FpContext`: E(F_p) is
    enumerated once on ints for the cross-checks and the fibers, which
    share the lists of each point's translate and chord (each built by one
    batch inversion), and the 3-torsion is found once for the
    cross-checks and the flex claim.
    """
    ctx = FpContext(params, p)
    return [
        verify_chord_incidence_symbolic(),
        verify_identity_symbolic(),
        verify_cross_checks(ctx),
        verify_fibers(ctx),
        verify_flex_correspondence(ctx),
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
    field_p = PrimeField(p)
    rng = lcg_stream(seed)
    out = []
    while len(out) < count:
        a = next(rng) % p
        b = next(rng) % p
        if b and (a * a - 4 * b) % p:
            out.append(validate_curve(field_p(a), field_p(b)))
    return out
