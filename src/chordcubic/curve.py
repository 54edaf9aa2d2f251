"""The curve y^2 z = x^3 + a x^2 z + b x z^2 with zero O = [0:1:0].

Smoothness is equivalent to b (a^2 - 4b) != 0, i.e. x (x^2 + a x + b)
having three distinct roots.  The distinguished 2-torsion point is
beta = (0, 0).  The group law is implemented from scratch through the
chord-and-tangent slope cases, so that the closed-form translation
(x, y) -> (b/x, -b y / x^2) has an independent oracle to be checked
against.  Points carry their curve parameters; operations on points of
different curves are rejected.

Over F_p the scalar functions, one body for both fields, are the oracles of
the int kernel on residue pairs that the per-point claims run on
(:func:`add_mod_p`, :func:`scalar_mul_mod_p`, and :func:`translates_mod_p`,
the translates of a whole list of points).
Torsion points and point orders are computed over F_p only; on a rational
curve :func:`two_torsion_points`, :func:`three_torsion_flexes` and
:func:`point_order` raise ValueError, as no claim needs them over Q.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .scalars import (
    PrimeField,
    PrimeFieldScalar,
    _quadratic_zeros,
    _roots_mod,
    check_modulus,
    inverses_mod_p,
    residue,
    squares_table,
)


class CurveParams(namedtuple("CurveParams", "a b")):
    """Validated coefficient pair (a, b) with b (a^2 - 4b) != 0.

    Every construction is checked, ``_make`` and ``_replace`` included.
    """

    __slots__ = ()

    def __new__(cls, a, b):
        if type(a) is not type(b):
            raise ValueError("curve coefficients must live in one field")
        if isinstance(a, PrimeFieldScalar) and a.modulus != b.modulus:
            raise ValueError("curve coefficients must share one modulus")
        if not isinstance(a, (Fraction, PrimeFieldScalar)):
            raise ValueError(f"unsupported coefficient type {type(a).__name__}")
        if b == 0:
            raise ValueError("beta degenerate: b = 0 puts (0,0) at a double root")
        if a * a - 4 * b == 0:
            raise ValueError("double root: a^2 = 4b makes the curve singular")
        return super().__new__(cls, a, b)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def modulus(self):
        """The prime p when defined over F_p, else None (rationals)."""
        return self.a.modulus if isinstance(self.a, PrimeFieldScalar) else None

    def scalar(self, n: int):
        """Embed a small integer into the coefficient field."""
        if self.modulus is not None:
            return PrimeFieldScalar(n, self.modulus)
        return Fraction(n)

    def coerce(self, value):
        """Coerce an int, Fraction or matching scalar into the field."""
        if self.modulus is not None:
            return PrimeField(self.modulus)(value)
        if isinstance(value, PrimeFieldScalar):
            raise ValueError("prime-field scalar on a rational curve")
        return Fraction(value)

    def __str__(self):
        return f"y^2 = x^3 + ({self.a})x^2 + ({self.b})x"


def validate_curve(a, b) -> CurveParams:
    """Check b (a^2 - 4b) != 0 and return the validated parameter pair."""
    if isinstance(a, int):
        a = Fraction(a)
    if isinstance(b, int):
        b = Fraction(b)
    return CurveParams(a, b)


def is_on_curve(params: CurveParams, coords) -> bool:
    """Whether Y^2 Z = X^3 + a X^2 Z + b X Z^2 holds exactly."""
    x, y, z = (params.coerce(c) for c in coords)
    if x == 0 and y == 0 and z == 0:
        raise ValueError("projective coordinates must not all vanish")
    return y * y * z == x ** 3 + params.a * x * x * z + params.b * x * z * z


class CurvePoint:
    """A projective point on a fixed curve, stored normalized.

    Affine points have Z = 1; the only infinite point is O = [0:1:0].
    Every point is checked to lie on the curve when it is built.  Over the
    rationals that is :func:`is_on_curve` followed by division by Z.  Over
    F_p each coordinate is reduced once to an int residue (coercion errors
    as in :func:`is_on_curve`), the zero triple is rejected, the curve
    equation is tested on those ints mod p, and the triple is scaled by one
    modular inverse of its lead coordinate (Z, or Y at infinity) when that
    is not already 1; the three stored scalars are built last.
    :func:`is_on_curve` stays the oracle of both paths.

    The int path stays because most F_p requests build points and the
    generic body costs five to seven times as much.  With
    ``_normalized_mod_p`` wrapped by a counter, over the first 150 requests
    of suite-large and degree and 300 of small-mix (``bench/workloads.py``
    streams, seed 1), the median per request was 7 for a suite-large
    ``suite`` (max 63), 9 for a small-mix ``suite``, 2 for ``flexes`` (max
    63), 3 for ``degree --order 2`` and 2 to 7 for orders 3 to 6.  One
    construction at p = 101 took 2.4-2.6 us on the int path against 14-18
    us for the generic body on the same scalars (best of 7 by ``timeit``,
    2-vCPU Intel Xeon VM, Python 3.11).
    """

    __slots__ = ("params", "coords")

    def __init__(self, params: CurveParams, coords):
        p = params.modulus
        if p is not None:
            coords = _normalized_mod_p(params, p, coords)
        elif not is_on_curve(params, coords):
            raise _off_curve(params, coords)
        else:
            x, y, z = (params.coerce(c) for c in coords)
            if z != 0:
                coords = (x / z, y / z, params.scalar(1))
            else:
                coords = (params.scalar(0), params.scalar(1), params.scalar(0))
        self.params = params
        self.coords = coords

    @classmethod
    def infinity(cls, params: CurveParams) -> CurvePoint:
        return cls(params, (0, 1, 0))

    @classmethod
    def affine(cls, params: CurveParams, x, y) -> CurvePoint:
        return cls(params, (x, y, 1))

    @property
    def is_infinity(self) -> bool:
        return self.coords[2] == 0

    @property
    def x(self):
        if self.is_infinity:
            raise ValueError("the point at infinity has no affine coordinates")
        return self.coords[0]

    @property
    def y(self):
        if self.is_infinity:
            raise ValueError("the point at infinity has no affine coordinates")
        return self.coords[1]

    def __eq__(self, other):
        if not isinstance(other, CurvePoint):
            return NotImplemented
        return self.params == other.params and self.coords == other.coords

    def __hash__(self):
        return hash((self.params, self.coords))

    def __str__(self):
        return _bracket(self.coords)

    def __repr__(self):
        return f"CurvePoint({self})"


def _off_curve(params: CurveParams, coords) -> ValueError:
    return ValueError(f"point {_bracket(coords)} is not on {params}")


def _normalized_mod_p(params: CurveParams, p: int, coords) -> tuple:
    """The stored coordinates of a point over F_p, validated on ints."""
    x, y, z = (residue(c, p) for c in coords)
    if not (x or y or z):
        raise ValueError("projective coordinates must not all vanish")
    a, b = params.a.value, params.b.value
    if (y * y * z - x * (x * x + (a * x + b * z) * z)) % p:
        raise _off_curve(params, coords)
    # On the curve z = 0 forces x = 0, so O is scaled by y to [0:1:0].
    lead = z or y
    if lead != 1:
        inv = pow(lead, -1, p)
        x, y, z = x * inv, y * inv, z * inv
    return (
        PrimeFieldScalar(x, p),
        PrimeFieldScalar(y, p),
        PrimeFieldScalar(z, p),
    )


def _coord_str(c) -> str:
    return str(c.value) if isinstance(c, PrimeFieldScalar) else str(c)


def _bracket(values) -> str:
    """``[x:y:z]``: the printed form of curve points, dual points and int triples."""
    return "[" + ":".join(_coord_str(c) for c in values) + "]"


def beta(params: CurveParams) -> CurvePoint:
    """The distinguished 2-torsion point (0, 0)."""
    return CurvePoint.affine(params, 0, 0)


def _same_curve(p: CurvePoint, q: CurvePoint):
    if p.params != q.params:
        raise ValueError("points live on different curves")


def negate(p: CurvePoint) -> CurvePoint:
    if p.is_infinity:
        return p
    return CurvePoint.affine(p.params, p.x, -p.y)


def group_add(p: CurvePoint, q: CurvePoint) -> CurvePoint:
    """Chord-and-tangent sum with zero O = [0:1:0], in the field of the curve.

    Over F_p it is the oracle of :func:`add_mod_p`, which it never calls.
    """
    _same_curve(p, q)
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    params = p.params
    a, b = params.a, params.b
    x1, y1, x2, y2 = p.x, p.y, q.x, q.y
    if x1 == x2:
        if y1 == -y2:
            return CurvePoint.infinity(params)
        lam = (3 * x1 * x1 + 2 * a * x1 + b) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - a - x1 - x2
    y3 = lam * (x1 - x3) - y1
    return CurvePoint.affine(params, x3, y3)


def add_mod_p(a: int, b: int, p: int, s, t):
    """The chord-and-tangent sum on E(F_p) for int residue pairs (x, y).

    None stands for O, both as an argument and as the result.
    """
    if s is None:
        return t
    if t is None:
        return s
    (x1, y1), (x2, y2) = s, t
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + 2 * a * x1 + b) * pow(2 * y1, -1, p)
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p)
    x3 = (lam * lam - a - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def scalar_mul_mod_p(a: int, b: int, p: int, n: int, s):
    """n s on E(F_p) for an int residue pair s (None for O), n >= 0.

    The double-and-add of scalar_mul on ints, through add_mod_p.
    """
    if n < 0:
        raise ValueError(f"multiplier must be nonnegative, got {n}")
    result = None
    while n:
        if n & 1:
            result = add_mod_p(a, b, p, result, s)
        n >>= 1
        if n:
            s = add_mod_p(a, b, p, s, s)
    return result


def scalar_mul(n: int, p: CurvePoint) -> CurvePoint:
    """n-fold sum via double-and-add; negative n through negation.

    Doubles only while higher bits remain and starts from the lowest set
    bit's multiple, so n >= 1 with k bits, m of them set, takes
    k + m - 2 additions (2 for n = 3).
    """
    if n < 0:
        return scalar_mul(-n, negate(p))
    result = None
    addend = p
    while n:
        if n & 1:
            result = addend if result is None else group_add(result, addend)
        n >>= 1
        if n:
            addend = group_add(addend, addend)
    return CurvePoint.infinity(p.params) if result is None else result


def translate_by_beta(p: CurvePoint) -> CurvePoint:
    """Add beta = (0,0) in closed form: (x, y) -> (b/x, -b y / x^2)."""
    params = p.params
    if p.is_infinity:
        return beta(params)
    if p.x == 0 and p.y == 0:
        return CurvePoint.infinity(params)
    x, y, b = p.x, p.y, params.b
    return CurvePoint.affine(params, b / x, -b * y / (x * x))


def translates_mod_p(b: int, p: int, points: list) -> list:
    """For each int pair of ``points`` (None for O), the index of its translate by beta.

    O and beta = (0, 0) go to each other; any other (x, y) goes to
    (b/x, -b y/x^2), translate_by_beta on ints, with all these x inverted
    by one :func:`~chordcubic.scalars.inverses_mod_p` (O and beta enter it
    as 1).  The indices come from one map of ``points`` to their
    positions; a translate that is not on the list gets None.
    """
    index = {q: i for i, q in enumerate(points)}
    xs = [1 if q is None or q == (0, 0) else q[0] for q in points]
    return [
        index.get((0, 0)) if q is None
        else index.get(None) if q == (0, 0)
        else index.get((b * inv % p, -b * q[1] * inv * inv % p))
        for q, inv in zip(points, inverses_mod_p(xs, p))
    ]


def point_order(p: CurvePoint) -> int:
    """Order of a point of E(F_p) by up to #E - 1 additions; ValueError over Q."""
    _prime_of(p.params)
    n = 1
    q = p
    while not q.is_infinity:
        q = group_add(q, p)
        n += 1
    return n


def _prime_of(params: CurveParams, p: int | None = None) -> int:
    """p if given, else the modulus of params; ValueError for a rational curve."""
    p = params.modulus if p is None else p
    if p is None:
        raise ValueError(f"torsion and orders are computed over F_p only, not on {params}")
    return p


def two_torsion_points(params: CurveParams) -> list:
    """O, beta, then (r, 0) for each root r of x^2 + a x + b in F_p, increasing.

    The roots come from :func:`~chordcubic.scalars._quadratic_zeros`.  A
    rational curve raises ValueError.
    """
    p = _prime_of(params)
    roots = sorted(_quadratic_zeros(params.b.value, params.a.value, 1, p))
    affine = [CurvePoint.affine(params, r, 0) for r in roots]
    return [CurvePoint.infinity(params), beta(params)] + affine


def reduce_params(params: CurveParams, p: int) -> CurveParams:
    """Reduce rational parameters mod p (rejecting singular reductions)."""
    check_modulus(p)
    if params.modulus is not None:
        if params.modulus != p:
            raise ValueError(f"parameters already live in F_{params.modulus}")
        return params
    field = PrimeField(p)
    return CurveParams(field(params.a), field(params.b))


def affine_points_mod_p(a: int, b: int, p: int) -> list:
    """The affine points of y^2 = x^3 + a x^2 + b x over F_p as int pairs.

    ``a`` and ``b`` are residues mod p; the pairs come by increasing (x, y).
    """
    roots = squares_table(p)
    return [
        (x, y)
        for x in range(p)
        for y in roots.get((x * x % p * x + a * x * x + b * x) % p, ())
    ]


def enumerate_points(params: CurveParams, p: int) -> list:
    """All F_p-rational points, O first, then by increasing (x, y)."""
    pp = reduce_params(params, p)
    affine = affine_points_mod_p(pp.a.value, pp.b.value, p)
    return [CurvePoint.infinity(pp)] + [CurvePoint.affine(pp, x, y) for x, y in affine]


def three_torsion_flexes(params: CurveParams, p: int | None = None) -> list:
    """All points q of E(F_p) with 3q = O, for p given or the modulus of params.

    An affine q has 3q = O iff x(2q) = x(q), i.e. iff x is a root of
    psi3 = 3x^4 + 4a x^3 + 6b x^2 - b^2 (squarefree on a smooth curve: its
    four roots are the x-coordinates of the four pairs +-q of order 3).  The
    roots come from :func:`~chordcubic.scalars._roots_mod`, which reads
    psi3 at every x in 0..p-1 by packed forward differences, and each root x
    gives (x, y) for each square root y of x^3 + a x^2 + b x in
    :func:`~chordcubic.scalars.squares_table`.  O and each such candidate
    are kept iff scalar_mul confirms 3q = O: O first, then by increasing
    (x, y).  A rational curve given without p raises ValueError.
    """
    p = _prime_of(params, p)
    params = reduce_params(params, p)
    a, b = params.a.value, params.b.value
    roots = squares_table(p)
    candidates = [CurvePoint.infinity(params)] + [
        CurvePoint.affine(params, x, y)
        for x in _roots_mod([-b * b, 0, 6 * b, 4 * a, 3], p)
        for y in roots.get((x * x * x + a * x * x + b * x) % p, ())
    ]
    return [q for q in candidates if scalar_mul(3, q).is_infinity]
