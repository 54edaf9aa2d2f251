"""Independent descriptions of what the package computes, used only as test oracles.

Imported by bare name, like ``fp_strategies``: pytest puts this directory
on ``sys.path`` for the test modules beside it.
"""

from chordcubic.chord import TernaryForm, as_triple, cross_mod_p, cubic_invariants, normalize_mod_p
from chordcubic.curve import _bracket, add_mod_p
from chordcubic.plane import _reduced, _zero_points_over_Fp, gradient, hessian_cubic
from chordcubic.poly import VARIABLES
from chordcubic.scalars import horner
from chordcubic.verify import _incident, _triple


def invariants_form(params) -> TernaryForm:
    """The cubic defined by the closed-form invariants, content-normalized.

    With S = U - mu_inv W the depressed equation of ``CubicInvariants`` is
    e S V^2 - W^3 + c1 S W^2 + c2 S^2 W = 0; this is its expanded table.
    Projectively it is the same curve as ``chord_cubic``, so the two tables
    agree exactly after normalization.
    """
    inv = cubic_invariants(params)
    e, c1, c2, m = inv.e, inv.c1, inv.c2, inv.mu_inv
    return TernaryForm(
        3,
        {
            (1, 2, 0): e,
            (0, 2, 1): -e * m,
            (2, 0, 1): c2,
            (1, 0, 2): c1 - 2 * c2 * m,
            (0, 0, 3): c2 * m * m - c1 * m - 1,
        },
    ).canonical()


def form_at_by_products(form: TernaryForm, coords):
    """The form at a triple as the sum of c * u**i * v**j * w**k, every power taken, u**0 too.

    The oracle of ``TernaryForm.evaluate``, which multiplies a coefficient
    only by the powers with a nonzero exponent; the two agree in value and
    in type.
    """
    u, v, w = as_triple(coords)
    return sum((c * u ** i * v ** j * w ** k for (i, j, k), c in form.coeffs.items()), 0)


def poly_at(q, field, **values):
    """The MultiPoly q at ints or Fractions for its variables, in field: Fraction or a PrimeField.

    Coefficients and values are taken into the field term by term; a
    variable of q with no value raises KeyError.
    """
    total = field(0)
    for key, coeff in q.terms.items():
        term = field(coeff)
        for name, e in zip(VARIABLES, key):
            if e:
                term = term * field(values[name]) ** e
        total = total + term
    return total


def dual_incidence(pt, line) -> bool:
    """Whether the point [X:Y:Z] lies on the line U X + V Y + W Z = 0."""
    x, y, z = as_triple(pt)
    u, v, w = as_triple(line)
    return u * x + v * y + w * z == 0


def chord_mod_p(b: int, p: int, s) -> tuple:
    """chord_map on an int residue pair (None for O), as a normalized int triple.

    The chord [y (x^2 + b) : b x - x^3 : -2 b x y], and [1:0:0] for O and beta.
    """
    if s is None or s == (0, 0):
        return (1, 0, 0)
    x, y = s
    return normalize_mod_p(((x * x + b) * y % p, (b * x - x ** 3) % p, -2 * b * x * y % p), p)


def translate_mod_p(b: int, p: int, s):
    """translate_by_beta on an int residue pair, None standing for O."""
    if s is None:
        return (0, 0)
    x, y = s
    if x == 0 and y == 0:
        return None
    inv = pow(x, -1, p)
    return b * inv % p, -b * y * inv * inv % p


def translate_table(b: int, p: int, points) -> dict:
    """Each int pair of ``points`` (None for O) mapped to its translate_mod_p, in order."""
    return {q: translate_mod_p(b, p, q) for q in points}


def chord_table(b: int, p: int, points) -> dict:
    """Each int pair of ``points`` (None for O) mapped to its chord_mod_p, in order."""
    return {q: chord_mod_p(b, p, q) for q in points}


def point_fault(a: int, b: int, p: int, g: TernaryForm, translates: dict, chords: dict, q) -> str:
    """The first per-point cross-check failing at q, as a witness template.

    All six checks at q itself, on the tables keyed by point
    (:func:`translate_table`, :func:`chord_table`) and the form ``g`` of G
    read mod p.  ``{q}`` in the template stands for the point; '' when every
    check holds.  The translate is recomputed by ``add_mod_p``, where the
    loop of verify checks it by the chord-and-tangent relation
    (``_is_sum_with_beta``), so comparing the two witnesses is a
    differential test of that relation.
    """
    shifted = translates[q]
    if shifted != add_mod_p(a, b, p, q, (0, 0)):
        return "translation formula disagrees at {q}"
    if shifted not in translates or translates[shifted] != q:
        return "translation is not an involution at {q}"
    line = chords[q]
    if line != chords[shifted]:
        return "chord map does not factor at {q}"
    q3, s3 = _triple(q), _triple(shifted)
    cross = cross_mod_p(q3, s3, p)
    if q != shifted and (not any(cross) or any(cross_mod_p(cross, line, p))):
        return "chord of {q} is not the two-point line"
    if not (_incident(q3, line, p) and _incident(s3, line, p)):
        return "chord of {q} misses an endpoint"
    if _reduced(g, p).evaluate(line) % p:
        return f"chord {_bracket(line)} of {{q}} is off the image cubic"
    return ""


def cross_witness_by_point(a: int, b: int, p: int, g: TernaryForm, translates: dict, chords: dict) -> str:
    """The per-point loop of verify_cross_checks: :func:`point_fault` at each point, in order."""
    for q in chords:
        fault = point_fault(a, b, p, g, translates, chords, q)
        if fault:
            return fault.format(q=_bracket(_triple(q)))
    return ""


def fiber_witness_by_point(translates: dict, chords: dict) -> str:
    """verify_fibers on the tables keyed by point: every fiber is {q, translates[q]}."""
    fibers = {}
    for q, line in chords.items():
        fibers.setdefault(line, []).append(q)
    if len(chords) % 2 or len(fibers) != len(chords) // 2:
        return f"image has {len(fibers)} lines for {len(chords)} points"
    for line, fiber in fibers.items():
        if set(fiber) != {fiber[0], translates[fiber[0]]}:
            return f"fiber of {_bracket(line)} is {[_bracket(_triple(v)) for v in fiber]}"
    return ""


def line_through_mod_p(s, t, p: int) -> tuple:
    """line_through on two int triples mod p, as a normalized int triple."""
    cross = cross_mod_p(s, t, p)
    if not any(cross):
        raise ValueError("no unique line: the points coincide")
    return normalize_mod_p(cross, p)


def smooth_by_sweep(form, p: int) -> bool:
    """smooth_over_Fp by testing the gradient at every zero of the full pencil sweep."""
    grads = [_reduced(g, p) for g in gradient(form)]
    for pt in _zero_points_over_Fp(form, p):
        if not any(g.evaluate(pt) % p for g in grads):
            return False
    return True


def flexes_by_sweep(form, p: int) -> list:
    """find_flexes_over_Fp by testing the Hessian at every zero of the full pencil sweep."""
    grads = [_reduced(g, p) for g in gradient(form)]
    hess = _reduced(hessian_cubic(form), p)
    return sorted(
        pt
        for pt in _zero_points_over_Fp(form, p)
        if hess.evaluate(pt) % p == 0 and any(g.evaluate(pt) % p for g in grads)
    )


def count_by_euler(a: int, b: int, p: int) -> int:
    """#E(F_p) for y^2 = x^3 + a x^2 + b x: O, then each x by Euler's criterion.

    For the image cubic G, #E'(F_p) is the count at (-2a, a^2 - 4b).
    """
    fs = (x * (x * x + a * x + b) % p for x in range(p))
    return 1 + sum(1 if f == 0 else 2 if pow(f, (p - 1) // 2, p) == 1 else 0 for f in fs)


def roots_by_scan(coeffs: list, q: int) -> list:
    """The roots in 0..q-1 of sum(coeffs[i] x^i) mod q, by one Horner evaluation per x.

    The oracle of ``scalars._roots_mod``; every x is a root of the zero
    polynomial.
    """
    return [x for x in range(q) if horner(coeffs, x) % q == 0]


def _chart_tables(table: dict, degree: int):
    """Coefficient grids of the three affine charts U=1, (0,1,w), (0,0,1)."""
    grid = [[0] * (degree + 1) for _ in range(degree + 1)]
    for (i, j, k), c in table.items():
        grid[j][k] += c
    edge = [0] * (degree + 1)
    for (i, j, k), c in table.items():
        if i == 0:
            edge[k] += c
    corner = table.get((0, 0, degree), 0)
    return grid, edge, corner


def zero_points_by_scan(form: TernaryForm, p: int):
    """Yield all projective F_p zeros of the form by testing every point.

    O(p^2), in the order v, then w, of the charts U = 1, (0, 1, w) and
    (0, 0, 1): the oracle of the pencil sweep, which shares with it only
    the reading of the form mod p (``_reduced``).
    """
    grid, edge, corner = _chart_tables(_reduced(form, p).coeffs, form.degree)
    columns = list(zip(*grid))  # columns[k][j] is the coefficient of v^j w^k
    for v in range(p):
        wcoef = [horner(column, v) % p for column in columns]
        for w in range(p):
            if horner(wcoef, w) % p == 0:
                yield (1, v, w)
    for w in range(p):
        if horner(edge, w) % p == 0:
            yield (0, 1, w)
    if corner % p == 0:
        yield (0, 0, 1)
