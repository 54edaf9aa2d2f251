"""Generic projective plane-curve utilities over either supported field.

Everything here is exact: Hessians are expanded term by term on the
coefficient tables, and the minimal interpolating degree of a set of F_p
points comes from ranks mod p of monomial evaluation matrices, built a
block of points at a time by columns and eliminated on rows packed into
one int each until one kernel form is left, which is then evaluated on the
columns; a nullity of 1 at the expected degree settles it in one rank.
One zero-finder gives the F_p zeros of a form: it solves the form on each
line of the pencil through the vertex of a coordinate of degree at most 2
where the form's discriminant along that coordinate is a square, the
quadratic lines together with one batch inversion, O(p) in all, or else
on every line of the pencil of a coordinate of least degree.  Smoothness
and flex searches solve only the lines of that pencil where the form
meets a second form (its partial along the pencil axis, or its Hessian):
the roots of one int eliminant of degree at most 11, plus the pencil's
line at infinity and its vertex.
The coefficients along the axis, the discriminant and the eliminant are
tabulated at every line by packed forward differences
(:func:`~chordcubic.scalars._values_mod`).  The searches solve every
line only when no coordinate has degree at most 2 or the eliminant
vanishes mod p.  Only F_p-rational singular points count.
Every function over F_p takes p explicitly and reads coefficients and
coordinates as ints mod p through :func:`~chordcubic.scalars.residue`,
except that min_interpolating_degree takes a list of points that are
already normalized int triples mod p as it is.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, product, repeat
from operator import mod, mul

from .chord import TernaryForm, as_triple, normalize_mod_p
from .curve import _bracket
from .scalars import _dot, _packed, _quadratic_zeros, _quadratics_solved, _roots_mod, _values_mod
from .scalars import check_modulus, horner, inverses_mod_p, residue, squares_table

# Highest degree that min_interpolating_degree tries: the image of a
# translation chord map lies on a cubic (order 2) or a sextic (order > 2).
MAX_INTERPOLATION_DEGREE = 8

# Points per block of min_interpolating_degree's evaluation matrix: one
# block holds the ncols - 1 rows that the rank needs at least at every
# degree, and an image of about p points at p near 100 fits in one.
INTERPOLATION_BLOCK = 256

# The permutations of (0, 1, 2) with their signs, for 3x3 determinants.
_SIGNED_PERMUTATIONS = (
    (1, (0, 1, 2)),
    (-1, (0, 2, 1)),
    (-1, (1, 0, 2)),
    (1, (1, 2, 0)),
    (1, (2, 0, 1)),
    (-1, (2, 1, 0)),
)


class MinDegree(namedtuple("MinDegree", "degree nullity kernel", defaults=(None,))):
    """Result of implicitization: smallest interpolating degree and nullity.

    At nullity 1, ``kernel`` holds the interpolating form's coefficients
    mod p in ``monomials(degree)`` order, scaled to 1 at its last nonzero
    entry; otherwise it is None.  Records compare as tuples, kernel included.
    """

    __slots__ = ()


def evaluate_form(form: TernaryForm, pt):
    """Exact evaluation of a form at a projective triple."""
    return form.evaluate(pt)


def gradient(form: TernaryForm) -> tuple:
    return (form.partial(0), form.partial(1), form.partial(2))


def hessian_cubic(form: TernaryForm) -> TernaryForm:
    """Determinant of the matrix of second partials of a cubic form.

    The second partials are linear forms, so the determinant is the signed
    sum, over the six permutations of the columns, of products of three
    linear forms, expanded term by term on their coefficient tables.  The
    coefficients only need + - * (ints, Fractions, F_p scalars, MultiPoly).
    """
    if form.degree != 3:
        raise ValueError(f"Hessian flex test needs a cubic, got degree {form.degree}")
    m = [[form.partial(i).partial(j).coeffs for j in range(3)] for i in range(3)]
    out = {}
    for sign, cols in _SIGNED_PERMUTATIONS:
        factors = (m[0][cols[0]], m[1][cols[1]], m[2][cols[2]])
        for (k0, c0), (k1, c1), (k2, c2) in product(*(f.items() for f in factors)):
            key = (k0[0] + k1[0] + k2[0], k0[1] + k1[1] + k2[1], k0[2] + k1[2] + k2[2])
            term = sign * (c0 * c1 * c2)
            out[key] = out[key] + term if key in out else term
    return TernaryForm(3, out)


def is_flex(form: TernaryForm, pt) -> bool:
    """Whether pt is a smooth point of the cubic with vanishing Hessian."""
    if evaluate_form(form, pt) != 0:
        raise ValueError(f"point {_bracket(as_triple(pt))} is not on the curve")
    if all(g.evaluate(pt) == 0 for g in gradient(form)):
        return False
    return hessian_cubic(form).evaluate(pt) == 0


def _reduced(form: TernaryForm, p: int) -> TernaryForm:
    """The form with its coefficients as ints mod p, zeros dropped.

    Each coefficient is read by :func:`~chordcubic.scalars.residue`, so a
    scalar mod another prime raises ValueError and a rational with p in
    its denominator ZeroDivisionError.  A coefficient that vanishes only
    mod p is dropped, so that the sweep sees the form's degree in each
    coordinate mod p, and derivatives take int arithmetic.
    """
    return TernaryForm(form.degree, {key: residue(c, p) for key, c in form.coeffs.items()})


def _degree_along(table: dict, z: int) -> int:
    """The degree of an int table in the coordinate z (0 for the zero table)."""
    return max((key[z] for key in table), default=0)


def _pencil_axis(table: dict) -> int:
    """The pencil axis of an int table: V, W or U, the first of degree <= 2.

    V and W come first, so that the lines (1, t) give points with U = 1.
    When every coordinate has degree 3 or more, the first of least degree.
    """
    return min((1, 2, 0), key=lambda z: max(_degree_along(table, z), 2))


def _along(table: dict, degree: int, axis: int, top: int) -> list:
    """The table's coefficients along the axis z, for z^0 .. z^top.

    With r and s the other two coordinates in order, ``polys[e][m]`` is the
    coefficient of z^e r^(degree-e-m) s^m, so on the pencil line (r, s) =
    (1, t) the form is the sum of polys[e](t) z^e, and on (0, 1) the sum of
    polys[e][-1] z^e.
    """
    s = 1 if axis == 2 else 2
    polys = [[0] * (max(degree - e, 0) + 1) for e in range(top + 1)]
    for key, c in table.items():
        polys[key[axis]][key[s]] += c
    return polys


def _pencil_zeros(table: dict, degree: int, axis: int, p: int, ts, solved=()):
    """The F_p zeros of an int table on some lines of the pencil along the axis z.

    Every point but the vertex, where only z is nonzero, lies on exactly one
    line of the pencil through the vertex, on which the other two
    coordinates (r, s) are (1, t) or (0, 1).  Restricted to such a line the
    form is a polynomial in z, evaluated by Horner's rule: a quadratic,
    solved by :func:`~chordcubic.scalars._quadratic_zeros`, when the form
    has degree at most 2 in z, else solved by
    :func:`~chordcubic.scalars._roots_mod`.  Yields the normalized zeros
    with (r, s) = (1, t) and z given by the pairs (t, z) of ``solved``,
    then those on the lines (1, t) for t in ``ts``, then on (0, 1), then
    the vertex if it is a zero.
    """
    top = max(2, _degree_along(table, axis))
    polys = _along(table, degree, axis, top)
    r, s = (m for m in range(3) if m != axis)
    pt = [0, 0, 0]
    pt[r] = 1
    for pt[s], pt[axis] in solved:
        yield normalize_mod_p(pt, p) if r else tuple(pt)
    for xr, xs in chain(((1, t) for t in ts), [(0, 1)]):
        coeffs = [horner(poly, xs) % p if xr else poly[-1] % p for poly in polys]
        zeros = _quadratic_zeros(*coeffs, p) if top == 2 else _roots_mod(coeffs, p)
        pt[r], pt[s] = xr, xs
        normalized = xr and not r  # (1, t) puts U = 1 first
        for z in zeros:
            pt[axis] = z
            yield tuple(pt) if normalized else normalize_mod_p(pt, p)
    vertex = [0, 0, 0]
    vertex[axis] = 1
    if table.get(tuple(degree * x for x in vertex), 0) % p == 0:
        yield tuple(vertex)


def _zero_points_over_Fp(form: TernaryForm, p: int):
    """All projective F_p zeros of the form, normalized, each once.

    The lines of the pencil through the vertex of :func:`_pencil_axis` are
    solved (:func:`_pencil_zeros`), O(p^2) in all when the form has degree
    3 or more in that coordinate z.  Otherwise, with the form c2 z^2 +
    c1 z + c0 on the line (1, t), c1, c2 and c1^2 - 4 c0 c2 are tabulated
    (:func:`~chordcubic.scalars._values_mod`) and only the lines where
    c1^2 - 4 c0 c2 is a square mod p are solved, O(p) in all; that includes
    every line where c2(t) = 0.  Those with c2(t) != 0 are solved together
    (:func:`~chordcubic.scalars._quadratics_solved`), with one
    :func:`~chordcubic.scalars.inverses_mod_p` for all 2 c2(t).  The order
    of the zeros is unspecified.
    """
    table = _reduced(form, p).coeffs
    axis = _pencil_axis(table)
    if _degree_along(table, axis) > 2:
        return _pencil_zeros(table, form.degree, axis, p, range(p))
    c0, c1, c2 = _along(table, form.degree, axis, 2)
    disc = _dot((c1, c1), ([-4 * x for x in c0], c2))
    roots = map(squares_table(p).get, _values_mod(disc, p))
    lines = zip(range(p), _values_mod(c1, p), _values_mod(c2, p), roots)
    kept = [line for line in lines if line[3]]
    quadratic = [line for line in kept if line[2]]
    inverses = inverses_mod_p([2 * c2t for _, _, c2t, _ in quadratic], p)
    linear = [t for t, _, c2t, _ in kept if not c2t]
    solved = _quadratics_solved(quadratic, inverses, p)
    return _pencil_zeros(table, form.degree, axis, p, linear, solved)


def _eliminant(c: list, k: list) -> list:
    """An int polynomial R(t) that vanishes on every line (1, t) where F and K meet.

    On the line, F = c2 z^2 + c1 z + c0 and K = k3 z^3 + k2 z^2 + k1 z + k0,
    where c[e] and k[e] are int polynomials in t.  Reduced by F,
    c2^2 K = A z + B with A = k3 (c1^2 - c0 c2) - k2 c1 c2 + k1 c2^2 and
    B = k3 c0 c1 - k2 c0 c2 + k0 c2^2.  Where c2(t) != 0, a common zero z
    has A z + B = 0, so R = c2 B^2 - c1 A B + c0 A^2, the resultant of F
    and A z + B, vanishes.  Where c2(t) = 0, A = k3 c1^2 and B = k3 c0 c1
    make R vanish too, so the lines where F drops degree are roots.  R has
    degree at most 11 for a cubic (Salmon, Higher Plane Curves, on
    elimination).
    """
    c0, c1, c2 = c
    k0, k1, k2, k3 = k
    minus_c0, minus_c1, minus_k2 = ([-x for x in f] for f in (c0, c1, k2))
    c2c2 = _dot((c2, c2))
    a = _dot((k3, _dot((c1, c1), (minus_c0, c2))), (minus_k2, _dot((c1, c2))), (k1, c2c2))
    b = _dot((k3, _dot((c0, c1))), (minus_k2, _dot((c0, c2))), (k0, c2c2))
    return _dot((b, _dot((c2, b), (minus_c1, a))), (c0, _dot((a, a))))


def _zeros_where_meeting(form: TernaryForm, p: int, seconds):
    """The F_p zeros of the form on the pencil lines where it meets a second form K.

    The form must already be read mod p (:func:`_reduced`): its table is
    taken as it is.  ``seconds[z]`` is K when the pencil axis of the form
    is z; K's int table is taken as it is too, as the eliminant is reduced
    mod p.  A line (1, t) is solved only at a root t of :func:`_eliminant`,
    read off its values at every t by forward differences
    (:func:`~chordcubic.scalars._roots_mod`); the line (0, 1) and the
    vertex are always solved.  So every common F_p zero of
    the form and K is among the zeros.  Every line is solved instead
    (:func:`_zero_points_over_Fp`) when no coordinate has degree at most 2
    or the eliminant vanishes mod p (the forms share a component, or the
    form is at most linear along the axis).
    """
    table = form.coeffs
    axis = _pencil_axis(table)
    if _degree_along(table, axis) <= 2:
        second = seconds[axis]
        eliminant = _eliminant(
            _along(table, form.degree, axis, 2),
            _along(second.coeffs, second.degree, axis, 3),
        )
        if any(x % p for x in eliminant):
            return _pencil_zeros(table, form.degree, axis, p, _roots_mod(eliminant, p))
    return _zero_points_over_Fp(form, p)


def count_zero_points_over_Fp(form: TernaryForm, p: int) -> int:
    """Number of F_p points of the projective zero set of the form.

    The count of the zeros that :func:`_zero_points_over_Fp` yields.
    """
    return sum(1 for _ in _zero_points_over_Fp(form, p))


def smooth_over_Fp(form: TernaryForm, p: int) -> bool:
    """No F_p point kills the form and all three partials simultaneously.

    Only F_p-rational points are tested, so a singular point defined over
    an extension of F_p goes unseen.  The gradient is tested only at the
    zeros on the pencil lines where the form meets its partial along the
    pencil axis (:func:`_zeros_where_meeting`), which hold every singular
    F_p point; the full sweep is the fallback.
    """
    form = _reduced(form, p)
    grads = gradient(form)
    for pt in _zeros_where_meeting(form, p, grads):
        if not any(g.evaluate(pt) % p for g in grads):
            return False
    return True


def find_flexes_over_Fp(form: TernaryForm, p: int) -> list:
    """All smooth F_p points of the cubic where the Hessian vanishes.

    The Hessian and the gradient are tested only at the zeros on the pencil
    lines where the cubic meets its Hessian (:func:`_zeros_where_meeting`),
    which hold every flex; the full sweep is the fallback.  The flexes are
    returned as normalized int triples, in sorted order.
    """
    form = _reduced(form, p)
    hessian = hessian_cubic(form)
    grads = gradient(form)
    return sorted(
        pt
        for pt in _zeros_where_meeting(form, p, (hessian,) * 3)
        if hessian.evaluate(pt) % p == 0 and any(g.evaluate(pt) % p for g in grads)
    )


def monomials(degree: int) -> list:
    """All exponent triples of one degree, descending lexicographic."""
    return [
        (i, j, degree - i - j)
        for i in range(degree, -1, -1)
        for j in range(degree - i, -1, -1)
    ]


def min_interpolating_degree(points, p: int, *, first: int | None = None) -> MinDegree | None:
    """Smallest degree of a nonzero form vanishing at all given F_p points.

    Returns the degree together with the kernel dimension of the monomial
    evaluation matrix (and, at nullity 1, the kernel form), or None when
    no degree up to MAX_INTERPOLATION_DEGREE works; an empty point list
    gives MinDegree(1, 3).  The modulus is checked first.  The points, any
    iterable, are listed once; unless they are all normalized int triples
    mod p already, which are taken as they are, each coordinate is read by
    :func:`~chordcubic.scalars.residue` and each point normalized
    (:func:`_normalized_points`), so a value that F_p refuses raises
    ValueError.  The points must be distinct.

    The degrees 1, 2, ... are ranked in turn, up to the first with a
    kernel.  With ``first``, the expected degree, that degree is ranked
    before any other, and a nullity of exactly 1 there is the answer: a
    form of lower degree e would put its C(first - e + 2, 2) >= 3
    independent multiples by monomials into that kernel (Cox, Little and
    O'Shea, Ideals, Varieties, and Algorithms, ch. 9 section 3).  Any other
    nullity falls back to the ascending search, so the result, kernel
    included, never depends on ``first``.  Each degree's matrix is built
    INTERPOLATION_BLOCK points at a time, by columns
    (:func:`_monomial_columns`), and only as the rank consumes the blocks,
    so it is never held whole.
    """
    check_modulus(p)
    if first is not None and not 1 <= first <= MAX_INTERPOLATION_DEGREE:
        raise ValueError(
            f"first must be a degree from 1 to {MAX_INTERPOLATION_DEGREE}, got {first}"
        )
    normalized = _normalized_points(list(points), p)
    if len(set(normalized)) != len(normalized):
        raise ValueError("interpolation points must be distinct")

    def ranked(d):
        mons = monomials(d)
        blocks = (
            _monomial_columns(normalized[start : start + INTERPOLATION_BLOCK], mons, p)
            for start in range(0, len(normalized), INTERPOLATION_BLOCK)
        )
        rank, kernel = _rank_and_kernel_mod_p(blocks, p, len(mons))
        return MinDegree(d, len(mons) - rank, kernel)

    if first is not None:
        found = ranked(first)
        if found.nullity == 1:
            return found
    for d in range(1, MAX_INTERPOLATION_DEGREE + 1):
        found = ranked(d)
        if found.nullity:
            return found
    return None


def _normalized_points(points: list, p: int) -> list:
    """The points read as normalized int triples mod p, with the errors of that reading.

    A list whose points are all tuples of three ints (bools excluded) in
    0..p-1 with first nonzero entry 1 is already what the reading gives,
    so it is returned as it is, after checks that iterate in C, with no
    Python call per point.  Any other list has each point read by
    :func:`~chordcubic.scalars.residue` and :func:`normalize_mod_p`.
    """
    if set(map(type, points)) <= {tuple} and set(map(len, points)) <= {3}:
        coords = list(chain.from_iterable(points))
        if (
            set(map(type, coords)) <= {int}
            and min(coords, default=0) >= 0
            and max(coords, default=0) < p
            and set(map(next, map(filter, repeat(None), points), repeat(0))) <= {1}
        ):
            return points
    return [normalize_mod_p([residue(c, p) for c in pt], p) for pt in points]


def _monomial_columns(block: list, mons: list, p: int) -> list:
    """The columns of the monomials' evaluation matrix at a block of int points.

    ``powers[z][e]`` lists coordinate z to the power e >= 1 mod p across
    the block, each power from the one before by one product per point.
    The column of a monomial is ``map(mul, ...)`` over the powers of its
    nonzero exponents (the power itself for a monomial in one coordinate),
    so its entries are products of up to three residues, not reduced mod
    p, and none is computed before it is read.
    """
    top = sum(mons[0])
    powers = []
    for base in zip(*block):
        table = [None, base]
        for _ in range(top - 1):
            table.append([x * y % p for x, y in zip(table[-1], base)])
        powers.append(table)
    columns = []
    for mon in mons:
        column, *factors = (table[e] for e, table in zip(mon, powers) if e)
        for factor in factors:
            column = map(mul, column, factor)
        columns.append(column)
    return columns


def _rank_and_kernel_mod_p(blocks, p: int, ncols: int) -> tuple:
    """Rank mod p of a matrix given as blocks of columns, and the kernel at nullity 1.

    Each block is a list of ncols columns of ints, of equal length, which
    together hold some rows of the matrix; the blocks are read in one pass,
    so they may come from a generator.  Each row, read off its block by
    ``zip(*columns)``, is reduced by the pivot rows found so far and,
    unless it vanishes mod p, joins them as the pivot row of its first
    nonzero column; no row is ever reduced above its pivot.  Once the rank
    reaches ncols - 1, back-substitution gives the kernel vector k (1 at
    the free column), and each further row raises the rank iff the kernel
    form sum(k_m row_m) is nonzero mod p there, since the row space is the
    orthogonal complement of the kernel.  The form is evaluated on the
    columns, sum(k_m col_m) mod p, at the rows left in the block and then
    block by block; the first nonzero value gives rank ncols, and no block
    after it is read.  The kernel is returned as a tuple when the rank ends
    at ncols - 1, else None.

    Until the rank reaches ncols - 1 a row is reduced packed into one int,
    its entries reduced mod p into fields of width = 2 bitlen(p) +
    bitlen(ncols) + 1 bits, lowest column lowest.  A pivot row at column col is kept packed from col on, with 1
    in its lowest field; the row is reduced from its lowest field up,
    shifting each column out once it is read, so that the reduction by the
    pivot row ``top`` of a column whose field is c mod p is the one
    multiply-add r += (p - c) * top.  A field never carries into the next:
    it starts below p, and a row takes at most ncols - 1 reductions, each
    adding (p - c) * e <= (p - 1)^2 with e an entry of a pivot row, so it
    stays below ncols * p^2 <= 2^(width - 1).  A pivot row is unpacked,
    normalized mod p and repacked once; back-substitution runs on int lists.
    """
    blocks = iter(blocks)
    width = 2 * p.bit_length() + ncols.bit_length() + 1
    mask = (1 << width) - 1
    basis, packed = {}, {}
    rest = []
    while len(basis) < ncols - 1:
        columns = next(blocks, None)
        if columns is None:
            return len(basis), None
        columns = [iter(column) for column in columns]
        for row in zip(*columns):
            r = _packed([v % p for v in row], width)
            for col in range(ncols):
                c = (r & mask) % p
                if c:
                    top = packed.get(col)
                    if top is None:
                        inv = pow(c, -1, p)
                        tail = [(r >> (width * m) & mask) * inv % p for m in range(ncols - col)]
                        basis[col] = tail
                        packed[col] = _packed(tail, width)
                        break
                    r += (p - c) * top
                r >>= width
            else:
                continue
            if len(basis) == ncols - 1:
                rest = columns
                break
    kernel = [0] * ncols
    kernel[next(col for col in range(ncols) if col not in basis)] = 1
    for col in sorted(basis, reverse=True):
        kernel[col] = -sum(map(mul, basis[col][1:], kernel[col + 1 :])) % p
    for columns in chain([rest], blocks):
        terms = [map(mul, column, repeat(k)) for column, k in zip(columns, kernel) if k]
        if any(map(mod, map(sum, zip(*terms)), repeat(p))):
            return ncols, None
    return ncols - 1, tuple(kernel)
