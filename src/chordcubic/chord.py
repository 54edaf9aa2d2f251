"""The chord map p -> line(p, p + beta) and the cubic its image satisfies.

For an affine point p = (x, y) other than beta itself, the line through p
and p + beta = (b/x, -b y/x^2) is

    [U : V : W] = [y (x^2 + b) : b x - x^3 : -2 b x y],

where [U : V : W] names the line U X + V Y + W Z = 0.  The two remaining
inputs O and beta form a single fiber of the map and go to [1 : 0 : 0],
the line X = 0 through both.  Smoothness (b (a^2 - 4b) != 0) guarantees
the formula never degenerates to [0 : 0 : 0].

Every chord satisfies one cubic equation G(U, V, W) = 0, stored expanded:

    G = 8 b^3 UV^2 + 4 b^2 U^2 W - 4 a b^2 V^2 W - 4 b W^3.

It is derived in the form

    G = 4 b^2 T V^2 - (4b - a^2) W^3 + 2 a T W^2 + T^2 W,   T = 2 b U - a W,

which the symbolic identity check substitutes the chord into.  Both are
denominator-free, so G stays valid at a = 0 and over any field where the
curve is smooth.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from .curve import CurveParams, CurvePoint, _bracket, _coord_str, beta
from .scalars import PrimeField, PrimeFieldScalar, inverses_mod_p


def coerce_triple(coords) -> tuple:
    """Lift a 3-tuple of ints/Fractions/prime-field scalars into one field.

    The field is F_p when some entry is a scalar mod p (all such entries
    must share p), else the rationals.
    """
    coords = tuple(coords)
    if len(coords) != 3:
        raise ValueError(f"expected a projective triple, got {coords!r}")
    moduli = {c.modulus for c in coords if isinstance(c, PrimeFieldScalar)}
    if len(moduli) > 1:
        raise ValueError("triple mixes different prime fields")
    if moduli:
        field = PrimeField(moduli.pop())
        return tuple(field(c) for c in coords)
    return tuple(Fraction(c) for c in coords)


def normalize_triple(coords) -> tuple:
    """Scale a projective triple so its first nonzero entry is 1 (see :func:`coerce_triple`)."""
    coords = coerce_triple(coords)
    for c in coords:
        if c != 0:
            return tuple(v / c for v in coords)
    raise ValueError("projective coordinates must not all vanish")


def normalize_mod_p(values, p: int) -> tuple:
    """Residues mod p (a triple or any vector) scaled so that the first nonzero is 1."""
    lead = next((c for c in values if c), None)
    if lead is None:
        raise ValueError("projective coordinates must not all vanish")
    if lead == 1:
        return tuple(values)
    inv = pow(lead, -1, p)
    return tuple(c * inv % p for c in values)


def as_triple(obj) -> tuple:
    """Accept a raw triple or anything exposing normalized ``coords``."""
    return getattr(obj, "coords", obj)


class DualPoint:
    """A projective triple [U:V:W] naming the line U X + V Y + W Z = 0."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = normalize_triple(coords)

    def __eq__(self, other):
        if not isinstance(other, DualPoint):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __str__(self):
        return _bracket(self.coords)

    def __repr__(self):
        return f"DualPoint({self})"


class TernaryForm:
    """Homogeneous form in (U, V, W) as a sparse coefficient table.

    Keys are exponent triples (i, j, k) with i + j + k = degree; zero
    coefficients are dropped.  Coefficients may be ints, Fractions,
    prime-field scalars, or any exact ring values supporting + - * and
    comparison with 0 (polynomial coefficients are used for symbolic
    checks).  A form is built from its table; there is no arithmetic on
    whole forms, only on their coefficients.  Forms defining curves always
    have at least one nonzero coefficient; a derivative may be the empty
    table (the zero form).
    """

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs):
        if not isinstance(degree, int) or degree < 0:
            raise ValueError(f"degree must be a nonnegative int, got {degree!r}")
        clean = {}
        for key, coeff in (coeffs or {}).items():
            if (
                not isinstance(key, tuple)
                or len(key) != 3
                or any(not isinstance(e, int) or e < 0 for e in key)
            ):
                raise ValueError(f"bad monomial key {key!r}")
            if sum(key) != degree:
                raise ValueError(f"monomial {key} does not have degree {degree}")
            if coeff != 0:
                clean[key] = coeff
        self.degree = degree
        self.coeffs = clean

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def sorted_items(self):
        return sorted(self.coeffs.items(), reverse=True)

    def partial(self, axis: int) -> TernaryForm:
        """Exact partial derivative along U (0), V (1) or W (2)."""
        out = {}
        for key, coeff in self.coeffs.items():
            e = key[axis]
            if not e:
                continue
            new = list(key)
            new[axis] = e - 1
            out[tuple(new)] = coeff * e
        return TernaryForm(max(self.degree - 1, 0), out)

    def evaluate(self, coords):
        """Exact value at a projective triple (zero/nonzero is projective).

        A coefficient is multiplied only by the powers with a nonzero
        exponent.  For coordinates in one ring the value and its type are
        those of the sum of c u^i v^j w^k, so a degree-0 form is still
        multiplied by u^0 v^0 w^0, and the zero form gives the int 0.
        """
        u, v, w = as_triple(coords)
        if not self.degree:
            return sum(c * u ** 0 * v ** 0 * w ** 0 for c in self.coeffs.values())
        total = 0
        for (i, j, k), c in self.coeffs.items():
            if i:
                c = c * u ** i
            if j:
                c = c * v ** j
            if k:
                c = c * w ** k
            total += c
        return total

    def canonical(self) -> TernaryForm:
        """Content-normalized copy for deterministic comparison.

        Rational tables are scaled to coprime integers with the leading
        (descending-lex) coefficient positive; prime-field tables are made
        monic in the leading coefficient.  Tables with ring coefficients
        are returned unchanged.
        """
        if self.is_zero:
            return self
        lead = self.coeffs[max(self.coeffs)]
        if isinstance(lead, PrimeFieldScalar):
            factor = lead.inverse()
        elif isinstance(lead, (int, Fraction)):
            fracs = [Fraction(c) for c in self.coeffs.values()]
            den = lcm(*(c.denominator for c in fracs))
            num = gcd(*(c.numerator * den // c.denominator for c in fracs))
            factor = Fraction(den if lead > 0 else -den, num)
        else:
            return self
        return TernaryForm(self.degree, {k: c * factor for k, c in self.coeffs.items()})

    def as_json_table(self) -> dict:
        return {
            f"U{i}V{j}W{k}": _coord_str(c) for (i, j, k), c in self.sorted_items()
        }

    def __eq__(self, other):
        if not isinstance(other, TernaryForm):
            return NotImplemented
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __str__(self):
        if self.is_zero:
            return "0"
        rendered = []
        for (i, j, k), coeff in self.sorted_items():
            parts = [_coord_str(coeff)]
            for name, e in (("U", i), ("V", j), ("W", k)):
                if e == 1:
                    parts.append(name)
                elif e > 1:
                    parts.append(f"{name}^{e}")
            rendered.append("·".join(parts))
        return " + ".join(rendered)

    def __repr__(self):
        return f"TernaryForm({self.degree}, {self})"


def line_through(p, q) -> DualPoint:
    """The unique line through two distinct projective points (cross product)."""
    p = coerce_triple(as_triple(p))
    q = coerce_triple(as_triple(q))
    cross = (
        p[1] * q[2] - p[2] * q[1],
        p[2] * q[0] - p[0] * q[2],
        p[0] * q[1] - p[1] * q[0],
    )
    if all(c == 0 for c in cross):
        raise ValueError("no unique line: the points coincide")
    return DualPoint(cross)


def cross_mod_p(s, t, p: int) -> tuple:
    """The cross product of two int triples mod p, zero iff they are proportional."""
    return (
        (s[1] * t[2] - s[2] * t[1]) % p,
        (s[2] * t[0] - s[0] * t[2]) % p,
        (s[0] * t[1] - s[1] * t[0]) % p,
    )


def chord_map(p: CurvePoint) -> DualPoint:
    """The line through p and p + beta, as a dual-plane point."""
    params = p.params
    if p.is_infinity or p == beta(params):
        one, zero = params.scalar(1), params.scalar(0)
        return DualPoint((one, zero, zero))
    return DualPoint(chord_triple(p.x, p.y, params.b))


def chord_triple(x, y, b) -> tuple:
    """The chord of the affine point (x, y), not normalized, over any ring."""
    return y * (x * x + b), b * x - x ** 3, -2 * b * x * y


def normalize_all_mod_p(triples: list, p: int) -> list:
    """normalize_mod_p on every int triple of the list, by one inverse.

    The leading entries are inverted together by
    :func:`~chordcubic.scalars.inverses_mod_p`.  The entries must be
    residues in 0..p-1; a zero triple raises ValueError.
    """
    inverses = inverses_mod_p([u or v or w for u, v, w in triples], p)
    return [
        (u * inv % p, v * inv % p, w * inv % p)
        for (u, v, w), inv in zip(triples, inverses)
    ]


def chords_mod_p(b: int, p: int, points) -> list:
    """chord_map at each int pair of ``points`` (None for O), in their order.

    Each affine point other than beta gets :func:`chord_triple` on ints,
    reduced mod p; O and beta get (1, 0, 0).  The chords are normalized
    together by :func:`normalize_all_mod_p`.
    """
    triples = []
    for s in points:
        if s is None or s == (0, 0):
            triples.append((1, 0, 0))
        else:
            u, v, w = chord_triple(s[0], s[1], b)
            triples.append((u % p, v % p, w % p))
    return normalize_all_mod_p(triples, p)


def chord_cubic_generic(a, b) -> TernaryForm:
    """The image cubic G, with coefficients in the ring of a and b."""
    bb = b * b
    return TernaryForm(
        3,
        {
            (1, 2, 0): 8 * bb * b,
            (2, 0, 1): 4 * bb,
            (0, 2, 1): -4 * a * bb,
            (0, 0, 3): -4 * b,
        },
    )


def chord_cubic(params: CurveParams) -> TernaryForm:
    """The content-normalized cubic vanishing on every chord of the curve."""
    return chord_cubic_generic(params.a, params.b).canonical()


def weierstrass_form(params: CurveParams) -> TernaryForm:
    """The curve's own defining cubic Y^2 Z - X^3 - a X^2 Z - b X Z^2."""
    one = params.scalar(1)
    return TernaryForm(
        3,
        {
            (0, 2, 1): one,
            (3, 0, 0): -one,
            (2, 0, 1): -params.a,
            (1, 0, 2): -params.b,
        },
    )


class CubicInvariants(namedtuple("CubicInvariants", "e c1 c2 mu_inv")):
    """Closed-form parameters of the image cubic.

    e and mu_inv pin the flex-tangent normalization, c1 and c2 the two
    rational coefficients of the depressed equation
    e (U - mu_inv W) V^2 = W^3 - c1 (U - mu_inv W) W^2 - c2 (U - mu_inv W)^2 W.
    """

    __slots__ = ()

    def as_dict(self) -> dict:
        return {
            "e": _coord_str(self.e),
            "c1": _coord_str(self.c1),
            "c2": _coord_str(self.c2),
            "muInv": _coord_str(self.mu_inv),
        }


def cubic_invariants(params: CurveParams) -> CubicInvariants:
    """e = -8b^3/(a^2-4b), c1 = 4ab/(4b-a^2), c2 = 4b^2/(4b-a^2), muInv = a/(2b)."""
    a, b = params.a, params.b
    d = a * a - 4 * b
    return CubicInvariants(
        e=-8 * b ** 3 / d,
        c1=4 * a * b / (4 * b - a * a),
        c2=4 * b * b / (4 * b - a * a),
        mu_inv=a / (2 * b),
    )
