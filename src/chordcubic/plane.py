"""Generic projective plane-curve utilities over either supported field.

Everything here is exact: Hessians are expanded symbolically, line-curve
intersections restrict the form to a binary form and count roots with
multiplicity in the working field only (no field extensions), and the
minimal interpolating degree comes from exact nullspace ranks of monomial
evaluation matrices.  The F_p zeros of a form at most quadratic in some
coordinate are found in O(p) by sweeping the pencil of lines through that
coordinate's vertex and solving one quadratic per line; smoothness and
flex searches over F_p test the gradient and the Hessian only at those
zeros.  The working field is inferred from the scalars inside the forms
and points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd

from .chord import DualPoint, TernaryForm, as_triple, coerce_triple, normalize_triple
from .curve import _divisors
from .scalars import PrimeField, PrimeFieldScalar, check_modulus, squares_table


@dataclass(frozen=True)
class IntersectionRecord:
    """One intersection point of a line with a curve, with multiplicity."""

    point: tuple
    multiplicity: int


@dataclass(frozen=True)
class MinDegree:
    """Result of implicitization: smallest interpolating degree and nullity."""

    degree: int
    nullity: int


def evaluate_form(form: TernaryForm, pt):
    """Exact evaluation of a form at a projective triple."""
    return form.evaluate(pt)


def dual_incidence(pt, line: DualPoint) -> bool:
    """Whether the point [X:Y:Z] lies on the line U X + V Y + W Z = 0."""
    x, y, z = as_triple(pt)
    u, v, w = as_triple(line)
    return u * x + v * y + w * z == 0


def gradient(form: TernaryForm) -> tuple:
    return (form.partial(0), form.partial(1), form.partial(2))


def hessian_cubic(form: TernaryForm) -> TernaryForm:
    """Determinant of the matrix of second partials of a cubic form."""
    if form.degree != 3:
        raise ValueError(f"Hessian flex test needs a cubic, got degree {form.degree}")
    m = [[form.partial(i).partial(j) for j in range(3)] for i in range(3)]
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def is_flex(form: TernaryForm, pt) -> bool:
    """Whether pt is a smooth point of the cubic with vanishing Hessian."""
    if evaluate_form(form, pt) != 0:
        raise ValueError(f"point {tuple(as_triple(pt))} is not on the curve")
    if all(g.evaluate(pt) == 0 for g in gradient(form)):
        return False
    return hessian_cubic(form).evaluate(pt) == 0


def _form_modulus(form: TernaryForm) -> int | None:
    for coeff in form.coeffs.values():
        if isinstance(coeff, PrimeFieldScalar):
            return coeff.modulus
        if not isinstance(coeff, (int, Fraction)):
            raise ValueError("form has ring coefficients, not field scalars")
    return None


def form_mod_p(form: TernaryForm, p: int) -> TernaryForm:
    """Coerce a form into F_p (a rational form is reduced coefficientwise)."""
    check_modulus(p)
    modulus = _form_modulus(form)
    if modulus is not None:
        if modulus != p:
            raise ValueError(f"form lives in F_{modulus}, not F_{p}")
        return form
    field = PrimeField(p)
    return TernaryForm(
        form.degree, {k: field(Fraction(c)) for k, c in form.coeffs.items()}
    )


def _int_table(form: TernaryForm, p: int) -> dict:
    return {k: c.value for k, c in form_mod_p(form, p).coeffs.items()}


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


def _zero_points_scan(form: TernaryForm, p: int):
    """Yield all projective F_p zeros of the form by testing every point.

    O(p^2): the sweep below falls back to it for a form of degree at least
    3 in every coordinate, and the tests use it as the oracle for the sweep.
    """
    table = _int_table(form, p)
    d = form.degree
    grid, edge, corner = _chart_tables(table, d)
    for v in range(p):
        vpow = [1] * (d + 1)
        for j in range(1, d + 1):
            vpow[j] = vpow[j - 1] * v % p
        wcoef = [
            sum(grid[j][k] * vpow[j] for j in range(d + 1)) % p for k in range(d + 1)
        ]
        for w in range(p):
            acc = 0
            for k in range(d, -1, -1):
                acc = (acc * w + wcoef[k]) % p
            if acc == 0:
                yield (1, v, w)
    for w in range(p):
        acc = 0
        for k in range(d, -1, -1):
            acc = (acc * w + edge[k]) % p
        if acc == 0:
            yield (0, 1, w)
    if corner % p == 0:
        yield (0, 0, 1)


def _zero_points_over_Fp(form: TernaryForm, p: int):
    """Yield all projective F_p zeros of the form, normalized, each once.

    When the form has degree at most 2 in a coordinate z, every point but
    the vertex where only z is nonzero lies on exactly one line of the
    pencil through that vertex, on which the other two coordinates (r, s)
    are (1, t) or (0, 1).  Restricted to such a line the form is a
    quadratic in z, solved with the square-root table: O(p) in all.  The
    order of the zeros is unspecified.
    """
    table = _int_table(form, p)
    d = form.degree
    # Prefer V or W as z, so that the lines (1, t) give points with U = 1.
    axis = next((z for z in (1, 2, 0) if all(key[z] <= 2 for key in table)), None)
    if axis is None:
        yield from _zero_points_scan(form, p)
        return
    r, s = (m for m in range(3) if m != axis)
    # polys[e][m] is the coefficient of z^e r^(d-e-m) s^m.
    polys = [[0] * (max(d - e, 0) + 1) for e in range(3)]
    for key, c in table.items():
        polys[key[axis]][key[s]] += c
    roots = squares_table(p)
    pt = [0, 0, 0]
    for xr, xs in chain(((1, t) for t in range(p)), [(0, 1)]):
        if xr:
            coeffs = [_poly_eval(poly, xs) % p for poly in polys]
        else:
            coeffs = [poly[-1] % p for poly in polys]
        pt[r], pt[s] = xr, xs
        for z in _quadratic_zeros(*coeffs, p, roots):
            pt[axis] = z
            yield _normalized(pt, p)
    vertex = [0, 0, 0]
    vertex[axis] = 1
    if table.get(tuple(d * x for x in vertex), 0) % p == 0:
        yield tuple(vertex)


def _quadratic_zeros(c0: int, c1: int, c2: int, p: int, roots: dict):
    """All z in F_p with c2 z^2 + c1 z + c0 = 0; every z for the zero polynomial."""
    if c2:
        inv = pow(2 * c2, -1, p)
        return [(y - c1) * inv % p for y in roots.get((c1 * c1 - 4 * c2 * c0) % p, ())]
    if c1:
        return [-c0 * pow(c1, -1, p) % p]
    return range(p) if c0 == 0 else []


def _normalized(pt, p: int) -> tuple:
    """An int triple scaled mod p so that its first nonzero entry is 1."""
    lead = next((c for c in pt if c), None)
    if lead is None:
        raise ValueError("projective coordinates must not all vanish")
    if lead == 1:
        return tuple(pt)
    inv = pow(lead, -1, p)
    return tuple(c * inv % p for c in pt)


def _scan_index(pt, p: int) -> int:
    """Position of a normalized triple in the order of _zero_points_scan."""
    u, v, w = pt
    if u:
        return v * p + w
    return p * p + (w if v else p)


def _vanishes(table: dict, pt, p: int) -> bool:
    u, v, w = pt
    return sum(c * u ** i * v ** j * w ** k for (i, j, k), c in table.items()) % p == 0


def count_zero_points_over_Fp(form: TernaryForm, p: int) -> int:
    """Number of F_p points of the projective zero set of the form."""
    return sum(1 for _ in _zero_points_over_Fp(form, p))


def smooth_over_Fp(form: TernaryForm, p: int) -> bool:
    """No F_p point kills the form and all three partials simultaneously."""
    fp = form_mod_p(form, p)
    grads = [_int_table(g, p) for g in gradient(fp)]
    for pt in _zero_points_over_Fp(fp, p):
        if all(_vanishes(g, pt, p) for g in grads):
            return False
    return True


def find_flexes_over_Fp(form: TernaryForm, p: int) -> list:
    """All smooth F_p points of the cubic where the Hessian vanishes.

    The Hessian and the gradient are tested only at the zeros of the form.
    The flexes are returned as triples of F_p scalars, in the order of the
    projective scan: [1:v:w] by (v, w), then [0:1:w] by w, then [0:0:1].
    """
    fp = form_mod_p(form, p)
    grads = [_int_table(g, p) for g in gradient(fp)]
    hess = _int_table(hessian_cubic(fp), p)
    flexes = [
        pt
        for pt in _zero_points_over_Fp(fp, p)
        if _vanishes(hess, pt, p) and not all(_vanishes(g, pt, p) for g in grads)
    ]
    flexes.sort(key=lambda pt: _scan_index(pt, p))
    field = PrimeField(p)
    return [tuple(field(c) for c in pt) for pt in flexes]


def _line_basis(line) -> tuple:
    """Two deterministic independent points spanning the line's point set."""
    coeffs = coerce_triple(as_triple(line))
    pivot = next(i for i, c in enumerate(coeffs) if c != 0)
    basis = []
    for j in range(3):
        if j == pivot:
            continue
        vec = [coeffs[pivot] * 0] * 3
        vec[j] = coeffs[pivot] / coeffs[pivot]
        vec[pivot] = -coeffs[j] / coeffs[pivot]
        basis.append(tuple(vec))
    return basis[0], basis[1]


def line_cubic_intersection(form: TernaryForm, line) -> list:
    """Intersection of a line with a cubic, with multiplicities.

    The form is restricted along a deterministic parametrization of the
    line to a binary cubic; only roots rational over the working field are
    reported, so the multiplicities sum to 3 exactly when the restriction
    splits and to at most 3 otherwise.  A line contained in the curve is
    rejected.
    """
    p = _form_modulus(form)
    line_coords = coerce_triple(as_triple(line))
    if p is not None:
        field = PrimeField(p)
        line_coords = tuple(field(c) for c in line_coords)
    p0, p1 = _line_basis(DualPoint(line_coords))
    d = form.degree
    # Restrict: each coordinate of s*p0 + t*p1 is linear in (s, t); binary
    # polynomials are lists indexed by the power of s.
    coords = [[p1[m], p0[m]] for m in range(3)]
    rest = [None] * (d + 1)
    for (i, j, k), coeff in form.coeffs.items():
        term = [coeff]
        for axis, e in ((0, i), (1, j), (2, k)):
            for _ in range(e):
                term = _bp_mul(term, coords[axis])
        for m, c in enumerate(term):
            rest[m] = c if rest[m] is None else rest[m] + c
    if all(c is None or c == 0 for c in rest):
        raise ValueError("degenerate: the line lies on the cubic")
    rest = [0 if c is None else c for c in rest]

    records = []
    top = max(m for m, c in enumerate(rest) if c != 0)
    if top < d:
        records.append(
            IntersectionRecord(normalize_triple(p0), multiplicity=d - top)
        )
    for root, mult in _univariate_roots(rest[: top + 1], p):
        pt = tuple(root * p0[m] + p1[m] for m in range(3))
        records.append(IntersectionRecord(normalize_triple(pt), mult))
    return records


def _bp_mul(lhs: list, rhs: list) -> list:
    out = [None] * (len(lhs) + len(rhs) - 1)
    for i, a in enumerate(lhs):
        for j, b in enumerate(rhs):
            prod = a * b
            out[i + j] = prod if out[i + j] is None else out[i + j] + prod
    return out


def _univariate_roots(coeffs: list, p: int | None) -> list:
    """Roots (with multiplicity) of sum coeffs[m] s^m in the working field."""
    degree = max((m for m, c in enumerate(coeffs) if c != 0), default=-1)
    if degree <= 0:
        return []
    work = list(coeffs[: degree + 1])
    roots = []
    for cand in _root_candidates(work, p):
        mult = 0
        while _poly_eval(work, cand) == 0:
            work = _synthetic_divide(work, cand)
            mult += 1
            if len(work) == 1:
                break
        if mult:
            roots.append((cand, mult))
    return roots


def _poly_eval(coeffs: list, s):
    acc = None
    for c in reversed(coeffs):
        acc = c if acc is None else acc * s + c
    return acc


def _synthetic_divide(coeffs: list, root) -> list:
    out = [None] * (len(coeffs) - 1)
    carry = coeffs[-1]
    for m in range(len(coeffs) - 2, -1, -1):
        out[m] = carry
        carry = coeffs[m] + carry * root
    return out


def _root_candidates(coeffs: list, p: int | None):
    if p is not None:
        field = PrimeField(p)
        return [field(v) for v in range(p)]
    fracs = [Fraction(c) for c in coeffs]
    scale = 1
    for c in fracs:
        scale = scale * c.denominator // gcd(scale, c.denominator)
    ints = [int(c * scale) for c in fracs]
    low = next(i for i, c in enumerate(ints) if c != 0)
    candidates = [Fraction(0)] if low > 0 else []
    lead, const = abs(ints[-1]), abs(ints[low])
    for num in _divisors(const):
        for den in _divisors(lead):
            candidates.append(Fraction(num, den))
            candidates.append(Fraction(-num, den))
    seen = set()
    out = []
    for c in candidates:
        if c not in seen:
            seen.add(c)
            out.append(c)
    return sorted(out)


def monomials(degree: int) -> list:
    """All exponent triples of one degree, descending lexicographic."""
    return sorted(
        (
            (i, j, degree - i - j)
            for i in range(degree, -1, -1)
            for j in range(degree - i, -1, -1)
        ),
        reverse=True,
    )


def min_interpolating_degree(points, dmax: int = 8) -> MinDegree | None:
    """Smallest degree of a nonzero form vanishing at all given points.

    Returns the degree together with the kernel dimension of the monomial
    evaluation matrix, or None when no degree up to ``dmax`` works.
    Points must be distinct and lie in one field.  Over F_p the matrix
    entries are products of per-coordinate power tables on plain ints.
    """
    if dmax > 8:
        raise ValueError("dmax is capped at 8")
    triples = [coerce_triple(as_triple(pt)) for pt in points]
    fields = {
        t[0].modulus if isinstance(t[0], PrimeFieldScalar) else None for t in triples
    }
    if len(fields) > 1:
        raise ValueError("interpolation points must lie in one field")
    modulus = fields.pop() if fields else None
    if modulus is None:
        normalized = [normalize_triple(t) for t in triples]
    else:
        normalized = [_normalized([c.value for c in t], modulus) for t in triples]
    if len(set(normalized)) != len(normalized):
        raise ValueError("interpolation points must be distinct")
    if modulus is not None:
        tables = [
            [[pow(c, e, modulus) for e in range(dmax + 1)] for c in t] for t in normalized
        ]
    for d in range(1, dmax + 1):
        mons = monomials(d)
        if modulus is None:
            rows = [
                [t[0] ** i * t[1] ** j * t[2] ** k for (i, j, k) in mons]
                for t in normalized
            ]
            rank = _rank_over_Q(rows)
        else:
            rows = [
                [pu[i] * pv[j] * pw[k] % modulus for (i, j, k) in mons]
                for pu, pv, pw in tables
            ]
            rank = _rank_mod_p(rows, modulus)
        nullity = len(mons) - rank
        if nullity > 0:
            return MinDegree(d, nullity)
    return None


def _rank_over_Q(rows: list) -> int:
    if not rows:
        return 0
    ncols = len(rows[0])
    mat = [[Fraction(c) for c in row] for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [v - factor * w for v, w in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def _rank_mod_p(mat: list, p: int) -> int:
    """Rank mod p of an int matrix, by row echelon form built row by row.

    Each row is reduced by the pivot rows found so far and, unless it
    vanishes, joins them as the pivot row of its first nonzero column; no
    row is ever reduced above its pivot.  Stops at full column rank.
    """
    ncols = len(mat[0]) if mat else 0
    basis = {}
    for row in mat:
        row = [v % p for v in row]
        for col in range(ncols):
            c = row[col]
            if not c:
                continue
            top = basis.get(col)
            if top is None:
                inv = pow(c, -1, p)
                basis[col] = [v * inv % p for v in row]
                break
            row = [(v - c * w) % p for v, w in zip(row, top)]
        if len(basis) == ncols:
            break
    return len(basis)
