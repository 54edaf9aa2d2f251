"""The curve y^2 z = x^3 + a x^2 z + b x z^2 with zero O = [0:1:0].

Smoothness is equivalent to b (a^2 - 4b) != 0, i.e. x (x^2 + a x + b)
having three distinct roots.  The distinguished 2-torsion point is
beta = (0, 0).  The group law is implemented from scratch through the
chord-and-tangent slope cases, so that the closed-form translation
(x, y) -> (b/x, -b y / x^2) has an independent oracle to be checked
against.  Points carry their curve parameters; operations on points of
different curves are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

from .scalars import (
    PrimeField,
    PrimeFieldScalar,
    check_modulus,
    rational_sqrt,
    squares_table,
)

# Rational-root searches (3-torsion over the rationals) give up beyond this
# coefficient size and raise rather than return an incomplete set.
_ROOT_SEARCH_BOUND = 10 ** 12

# Largest order of a rational torsion point (Mazur).
_MAZUR_BOUND = 12

# Trial divisors tried when looking for the minimal model of a rational curve.
_SCALE_TRIAL_LIMIT = 10 ** 4


@dataclass(frozen=True)
class CurveParams:
    """Validated coefficient pair (a, b) with b (a^2 - 4b) != 0."""

    a: object
    b: object

    def __post_init__(self):
        a, b = self.a, self.b
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
    """

    __slots__ = ("params", "coords")

    def __init__(self, params: CurveParams, coords):
        if not is_on_curve(params, coords):
            raise ValueError(f"point {tuple(coords)} is not on {params}")
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
        return "[" + ":".join(_coord_str(c) for c in self.coords) + "]"

    def __repr__(self):
        return f"CurvePoint({self})"


def _coord_str(c) -> str:
    return str(c.value) if isinstance(c, PrimeFieldScalar) else str(c)


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
    """Chord-and-tangent sum with zero O = [0:1:0]."""
    _same_curve(p, q)
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    a, b = p.params.a, p.params.b
    x1, y1, x2, y2 = p.x, p.y, q.x, q.y
    if x1 == x2:
        if y1 == -y2:
            return CurvePoint.infinity(p.params)
        lam = (3 * x1 * x1 + 2 * a * x1 + b) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - a - x1 - x2
    y3 = lam * (x1 - x3) - y1
    return CurvePoint.affine(p.params, x3, y3)


def scalar_mul(n: int, p: CurvePoint) -> CurvePoint:
    """n-fold sum via double-and-add; negative n through negation."""
    if n < 0:
        return scalar_mul(-n, negate(p))
    result = CurvePoint.infinity(p.params)
    addend = p
    while n:
        if n & 1:
            result = group_add(result, addend)
        addend = group_add(addend, addend)
        n >>= 1
    return result


def translate_by_beta(p: CurvePoint) -> CurvePoint:
    """Add beta = (0,0) in closed form: (x, y) -> (b/x, -b y / x^2)."""
    params = p.params
    if p.is_infinity:
        return beta(params)
    if p.x == 0 and p.y == 0:
        return CurvePoint.infinity(params)
    x, y, b = p.x, p.y, params.b
    return CurvePoint.affine(params, b / x, -b * y / (x * x))


def point_order(p: CurvePoint) -> int:
    """Order of a point in the group, by repeated addition.

    Over F_p this takes up to #E - 1 additions.  Over the rationals a point
    of finite order has order at most 12 (Mazur, Publ. Math. IHES 47, 1977),
    so a point still nonzero at 12 p has infinite order: ValueError.
    """
    bound = _MAZUR_BOUND if p.params.modulus is None else None
    n = 1
    q = p
    while not q.is_infinity:
        if n == bound:
            raise ValueError(
                f"point {p} has infinite order: rational torsion has order <= {bound}"
            )
        q = group_add(q, p)
        n += 1
    return n


def _sort_key(scalar):
    return scalar.value if isinstance(scalar, PrimeFieldScalar) else scalar


def two_torsion_points(params: CurveParams) -> list:
    """O, beta, and (r, 0) for each root r of x^2 + a x + b in the field."""
    a, b = params.a, params.b
    points = [CurvePoint.infinity(params), beta(params)]
    disc = a * a - 4 * b
    roots = []
    if params.modulus is not None:
        entry = squares_table(params.modulus).get(disc.value)
        if entry is not None:
            s = params.scalar(entry[0])
            roots = [(-a + s) / 2, (-a - s) / 2]
    else:
        s = rational_sqrt(disc)
        if s is not None:
            roots = [(-a + s) / 2, (-a - s) / 2]
    for r in sorted(set(roots), key=_sort_key):
        points.append(CurvePoint.affine(params, r, 0))
    return points


def reduce_params(params: CurveParams, p: int) -> CurveParams:
    """Reduce rational parameters mod p (rejecting singular reductions)."""
    check_modulus(p)
    if params.modulus is not None:
        if params.modulus != p:
            raise ValueError(f"parameters already live in F_{params.modulus}")
        return params
    field = PrimeField(p)
    return CurveParams(field.from_rational(params.a), field.from_rational(params.b))


def enumerate_points(params: CurveParams, p: int) -> list:
    """All F_p-rational points, O first, then by increasing (x, y)."""
    pp = reduce_params(params, p)
    a, b = pp.a.value, pp.b.value
    table = squares_table(p)
    points = [CurvePoint.infinity(pp)]
    for x in range(p):
        rhs = (x * x % p * x + a * x * x + b * x) % p
        roots = table.get(rhs)
        if roots is None:
            continue
        for y in roots:
            points.append(CurvePoint.affine(pp, x, y))
    return points


def three_torsion_flexes(params: CurveParams, p: int | None = None) -> list:
    """All points q with 3q = O in the working field.

    Over F_p this is an exhaustive scan of the rational points.  Over the
    rationals the search runs on the minimal model (a/u^2, b/u^4) with
    integer coefficients, whose points map back by (x, y) -> (u^2 x, u^3 y).
    There the affine candidates are the rational roots of the quartic
    3x^4 + 4a x^3 + 6b x^2 - b^2 (the condition x(2q) = x(q)), found by the
    rational root theorem.  ValueError when that model's coefficients are
    too large for the search, rather than an incomplete set.
    """
    if p is not None:
        return [
            q for q in enumerate_points(params, p) if scalar_mul(3, q).is_infinity
        ]

    u = _minimal_scale(Fraction(params.a), Fraction(params.b))
    a, b = int(params.a / u ** 2), int(params.b / u ** 4)
    ints = [3, 4 * a, 6 * b, 0, -b * b]
    lead, const = ints[0], b * b
    if const > _ROOT_SEARCH_BOUND:
        raise ValueError(
            f"3-torsion search on {params} needs the divisors of {const}: "
            f"too large to enumerate (bound {_ROOT_SEARCH_BOUND})"
        )

    found = []
    for num in _divisors(const):
        for den in _divisors(lead):
            for sign in (1, -1):
                x = Fraction(sign * num, den)
                if sum(c * x ** (4 - i) for i, c in enumerate(ints)) != 0:
                    continue
                fx = x ** 3 + a * x * x + b * x
                s = rational_sqrt(fx)
                if s is None:
                    continue
                for y in {s, -s}:
                    q = CurvePoint.affine(params, u ** 2 * x, u ** 3 * y)
                    if scalar_mul(3, q).is_infinity and q not in found:
                        found.append(q)
    found.sort(key=lambda q: (_sort_key(q.x), _sort_key(q.y)))
    return [CurvePoint.infinity(params)] + found


def _minimal_scale(a: Fraction, b: Fraction) -> Fraction:
    """A u > 0 making (a/u^2, b/u^4) integers, as large as can be found.

    u = e/d where d clears the denominators and e^4 is the largest fourth
    power dividing gcd(A^2, B) for the integral A = a d^2, B = b d^4, so
    that e^2 | A and e^4 | B.  Trial division strips each small factor t
    and finds e exactly once t^5 exceeds the cofactor: what is left then
    has at most four prime factors and holds a fourth power only by being
    one.  Past _SCALE_TRIAL_LIMIT the answer may fall short of the minimal
    model.
    """
    d = lcm(a.denominator, b.denominator)
    rest = gcd(int(a * d ** 2) ** 2, int(b * d ** 4))
    e, t = 1, 2
    while t <= _SCALE_TRIAL_LIMIT and t ** 5 <= rest:
        k = 0
        while rest % t == 0:
            rest //= t
            k += 1
        e *= t ** (k // 4)
        t += 1
    root = isqrt(isqrt(rest))
    if root > 1 and root ** 4 == rest:
        e *= root
    return Fraction(e, d)


def _divisors(n: int) -> list:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)
