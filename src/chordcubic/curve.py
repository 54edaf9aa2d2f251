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
(:func:`add_mod_p`, :func:`scalar_mul_mod_p`, :func:`translate_mod_p`).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import count
from math import lcm

from .scalars import (
    PrimeField,
    PrimeFieldScalar,
    check_modulus,
    horner,
    is_prime,
    rational_sqrt,
    residue,
    squares_table,
)

# Largest order of a rational torsion point (Mazur).
_MAZUR_BOUND = 12


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

    The int path stays because F_p points are built several times per
    request (7 per suite or flexes at p = 101 and at p = 1009, 2 per map,
    3 per degree --order 2, 11 per degree --order 4) and the generic body
    costs about seven times as much (42 against 6 us per point on a 2-vCPU
    VM, Python 3.11).
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
    return ValueError(f"point {_tuple_str(coords)} is not on {params}")


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


def _tuple_str(coords) -> str:
    return "(" + ", ".join(_coord_str(c) for c in coords) + ")"


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


def translate_mod_p(b: int, p: int, s):
    """translate_by_beta on an int residue pair, None standing for O."""
    if s is None:
        return (0, 0)
    x, y = s
    if x == 0 and y == 0:
        return None
    inv = pow(x, -1, p)
    return b * inv % p, -b * y * inv * inv % p


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


def _sqrt(params: CurveParams, v):
    """A square root of the field element v, or None if v is not a square."""
    if params.modulus is None:
        return rational_sqrt(v)
    entry = squares_table(params.modulus).get(v.value)
    return None if entry is None else params.scalar(entry[0])


def two_torsion_points(params: CurveParams) -> list:
    """O, beta, and (r, 0) for each root r of x^2 + a x + b in the field."""
    a, b = params.a, params.b
    s = _sqrt(params, a * a - 4 * b)
    roots = [] if s is None else [(-a + s) / 2, (-a - s) / 2]
    affine = [CurvePoint.affine(params, r, 0) for r in sorted(roots, key=_sort_key)]
    return [CurvePoint.infinity(params), beta(params)] + affine


def reduce_params(params: CurveParams, p: int) -> CurveParams:
    """Reduce rational parameters mod p (rejecting singular reductions)."""
    check_modulus(p)
    if params.modulus is not None:
        if params.modulus != p:
            raise ValueError(f"parameters already live in F_{params.modulus}")
        return params
    field = PrimeField(p)
    return CurveParams(field.from_rational(params.a), field.from_rational(params.b))


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
    """All points q with 3q = O over F_p (p given or that of params), else over Q.

    An affine q has 3q = O iff x(2q) = x(q), i.e. iff x is a root of
    psi3 = 3x^4 + 4a x^3 + 6b x^2 - b^2 (squarefree on a smooth curve: its
    four roots are the x-coordinates of the four pairs +-q of order 3).
    Over F_p the roots come from :func:`_roots_mod`.  Over the rationals,
    with d the common denominator of a and b, the torsion of the integral
    model (a d^2, b d^4), whose points are (d^2 x, d^3 y), has integer
    coordinates by Nagell-Lutz (Silverman-Tate, Rational Points on Elliptic
    Curves, 2.4); so the roots are its integer roots of psi3
    (:func:`_integer_roots`) over d^2.  Each root x gives (x, +-y) when
    f(x) = x^3 + a x^2 + b x has a square root y in the field
    (:func:`_sqrt`).  O and each such candidate are kept iff scalar_mul
    confirms 3q = O: O first, then by increasing (x, y).
    """
    p = params.modulus if p is None else p
    if p is not None:
        params = reduce_params(params, p)
        d, a, b = 1, params.a.value, params.b.value
    else:
        d = lcm(params.a.denominator, params.b.denominator)
        a, b = int(params.a * d ** 2), int(params.b * d ** 4)
    psi3 = [-b * b, 0, 6 * b, 4 * a, 3]
    roots = _integer_roots(psi3) if p is None else _roots_mod(psi3, p)
    candidates = [CurvePoint.infinity(params)]
    for x in (params.coerce(Fraction(r, d * d)) for r in roots):
        s = _sqrt(params, x ** 3 + params.a * x * x + params.b * x)
        for y in [] if s is None else sorted({-s, s}, key=_sort_key):
            candidates.append(CurvePoint.affine(params, x, y))
    return [q for q in candidates if scalar_mul(3, q).is_infinity]


def _roots_mod(coeffs: list, q: int) -> list:
    """The roots in 0..q-1 of the int polynomial sum(coeffs[i] x^i) mod q.

    One Horner evaluation per x, after the zero coefficients mod q at both
    ends are dropped (zeros at the low end give the root 0).  Every x is a
    root of the zero polynomial.
    """
    coeffs = [c % q for c in coeffs]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    low = next((i for i, c in enumerate(coeffs) if c), None)
    if low is None:
        return list(range(q))
    rest = coeffs[low:]
    return [0] * (low > 0) + [r for r in range(q) if horner(rest, r) % q == 0]


def _integer_roots(coeffs: list) -> list:
    """The integer roots of a squarefree int polynomial, in increasing order.

    ``coeffs[i]`` is the coefficient of x^i.  Every root lies within the
    Cauchy bound 1 + max |coeffs[i] / coeffs[-1]|.  At the first prime q not
    dividing the leading coefficient at which each root mod q is simple
    (one exists, as q then only has to avoid the discriminant), each
    integer root reduces to one of those roots and is its unique Hensel
    lift.  Newton's iteration lifts every root mod q to a modulus q^(2^k)
    above twice the bound, where the symmetric residue is the only
    candidate and is tested exactly (Loos, SIAM J. Comput. 12, 1983).
    """
    lead = coeffs[-1]
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    bound = 1 - max(abs(c) for c in coeffs[:-1]) // -abs(lead)
    q = 2
    while True:
        if lead % q:
            roots = _roots_mod(coeffs, q)
            if all(horner(deriv, r) % q for r in roots):
                break
        q = next(n for n in count(q + 1) if is_prime(n))
    m = q
    while m <= 2 * bound:
        m *= m
        roots = [(r - horner(coeffs, r) * pow(horner(deriv, r), -1, m)) % m for r in roots]
    lifted = sorted(r - m if 2 * r > m else r for r in roots)
    return [x for x in lifted if horner(coeffs, x) == 0]
