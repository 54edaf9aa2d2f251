"""Exact field arithmetic shared by every other module.

Two coefficient fields are supported:

* arbitrary-precision rationals, represented directly by
  :class:`fractions.Fraction` (always stored reduced, denominator positive),
* prime fields F_p for odd primes 3 < p < 2**16, via
  :class:`PrimeFieldScalar`.

Each kind of scalar supports ``+ - * / **`` against itself and plain
``int`` (never the other kind), so the curve, polynomial and plane-geometry
code runs unchanged over either field.  Characteristic 2 and 3 are rejected
outright: the y^2 = f(x) curve model and the Hessian flex criterion both
degenerate there.  All values are immutable, all operations pure.

Int polynomials mod p are tabulated at every residue by forward
differences packed into one int (:func:`_values_mod`), for the root scans
and the pencil sweep.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from types import MappingProxyType

MAX_PRIME = 1 << 16


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (moduli are desk scale)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@lru_cache(maxsize=None)
def check_modulus(p: int) -> int:
    """Validate an odd prime modulus with 3 < p < 2**16 and return it."""
    if not isinstance(p, int) or isinstance(p, bool):
        raise ValueError(f"modulus must be an integer, got {p!r}")
    if p <= 3 or p >= MAX_PRIME or not is_prime(p):
        raise ValueError(f"modulus must be a prime with 3 < p < 2**16, got {p}")
    return p


class PrimeFieldScalar:
    """A residue in F_p; mixes freely with ``int`` operands."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        check_modulus(modulus)
        self.value = value % modulus
        self.modulus = modulus

    def _coerce(self, other):
        if isinstance(other, PrimeFieldScalar):
            if other.modulus != self.modulus:
                raise ValueError(
                    f"mixed moduli: {self.modulus} vs {other.modulus}"
                )
            return other.value
        if isinstance(other, int) and not isinstance(other, bool):
            return other % self.modulus
        return None

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return PrimeFieldScalar(self.value + v, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return PrimeFieldScalar(self.value - v, self.modulus)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return PrimeFieldScalar(v - self.value, self.modulus)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return PrimeFieldScalar(self.value * v, self.modulus)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return self * PrimeFieldScalar(v, self.modulus).inverse()

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return PrimeFieldScalar(v, self.modulus) * self.inverse()

    def __neg__(self):
        return PrimeFieldScalar(-self.value, self.modulus)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return PrimeFieldScalar(
            pow(self.value, exponent, self.modulus), self.modulus
        )

    def inverse(self) -> PrimeFieldScalar:
        """The multiplicative inverse; ZeroDivisionError for 0."""
        if self.value == 0:
            raise ZeroDivisionError(f"0 mod {self.modulus} has no inverse")
        return PrimeFieldScalar(pow(self.value, -1, self.modulus), self.modulus)

    def __eq__(self, other):
        if isinstance(other, PrimeFieldScalar):
            return self.modulus == other.modulus and self.value == other.value
        if isinstance(other, int) and not isinstance(other, bool):
            return self.value == other % self.modulus
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.modulus))

    def __str__(self):
        return f"{self.value} mod {self.modulus}"

    def __repr__(self):
        return f"PrimeFieldScalar({self.value}, {self.modulus})"


class PrimeField:
    """The field F_p; builds scalars from ints or exact rationals."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        self.p = check_modulus(p)

    def __call__(self, value) -> PrimeFieldScalar:
        if isinstance(value, PrimeFieldScalar):
            if value.modulus != self.p:
                raise ValueError(f"scalar mod {value.modulus} is not in F_{self.p}")
            return value
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError(
                    f"denominator {value.denominator} is not invertible mod {self.p}"
                )
            num = PrimeFieldScalar(value.numerator, self.p)
            return num * PrimeFieldScalar(value.denominator, self.p).inverse()
        if isinstance(value, int) and not isinstance(value, bool):
            return PrimeFieldScalar(value, self.p)
        raise ValueError(f"cannot coerce {value!r} into F_{self.p}")

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


def residue(value, p: int) -> int:
    """The int in 0..p-1 that ``PrimeField(p)(value)`` holds, with its errors.

    A plain int (not a bool) is reduced by ``% p`` and a scalar already mod
    p gives its value, neither through a new construction; anything else
    is coerced by the field.
    """
    if type(value) is int:
        return value % check_modulus(p)
    if isinstance(value, PrimeFieldScalar) and value.modulus == p:
        return value.value
    return PrimeField(p)(value).value


def inverses_mod_p(values: list, p: int) -> list:
    """``pow(v, -1, p)`` for each int v of the list, from one modular inverse.

    The prefix products of the values are inverted together from one
    inverse of their product (Montgomery, Math. Comp. 48, 1987).  A value
    divisible by p makes the product 0, whose inverse raises ValueError.
    """
    prefix = [1]
    for v in values:
        prefix.append(prefix[-1] * v % p)
    inv = pow(prefix.pop(), -1, p)
    out = []
    for v, before in zip(reversed(values), reversed(prefix)):
        out.append(inv * before % p)
        inv = inv * v % p
    out.reverse()
    return out


@lru_cache(maxsize=None)
def squares_table(p: int) -> MappingProxyType:
    """Map each quadratic residue mod p to the tuple of its square roots.

    Roots are listed in increasing order; non-residues are absent.  The
    table has exactly (p+1)/2 keys and the root tuples partition 0..p-1.
    It is built once per modulus and shared read-only.
    """
    check_modulus(p)
    table: dict[int, list[int]] = {}
    for y in range(p):
        table.setdefault(y * y % p, []).append(y)
    return MappingProxyType({r: tuple(ys) for r, ys in table.items()})


def horner(coeffs: list, s: int) -> int:
    """The int polynomial sum(coeffs[i] s^i) at s, by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


def _packed(values, width: int) -> int:
    """The ints 0 <= v < 2^width packed into one int, the first lowest."""
    r = 0
    for v in reversed(values):
        r = r << width | v
    return r


def _values_mod(coeffs: list, q: int):
    """An iterator over f(t) mod q, t = 0, 1, ..., q - 1, for f = sum(coeffs[i] x^i).

    A polynomial that is constant mod q gives its constant q times, with no
    differences to step.  Any other goes by forward differences (Knuth,
    TAOCP vol. 2, 4.6.4), with the coefficients reduced to 0..q-1 and n =
    len(coeffs) - 1: the fields of the int s, of width = bitlen(f(q + n)) +
    1 bits, hold D^k f(t) for k = 0..n, lowest first.  D^k f(t + 1) = D^k
    f(t) + D^(k+1) f(t), so ``s += s >> width`` steps from t to t + 1, and
    f(t) mod q is ``(s & mask) % q``.  No field carries: D x^m = (x + 1)^m -
    x^m has nonnegative coefficients, so every D^k f has too, and D^k f(t) =
    D^(k-1) f(t + 1) - D^(k-1) f(t) is in 0..D^(k-1) f(t + 1) <= f(t + k);
    so up to t = q each field is in 0..f(q + n) < 2^(width - 1).
    D^k f(0) = k! a_k, where the a_k of the Newton form f = sum(a_k x
    (x - 1) ... (x - k + 1)) are the remainders of dividing f by x, the
    quotient by x - 1, and so on.  When n >= q, each exponent e >= q is
    first folded to (e - 1) % (q - 1) + 1, as x^q = x on F_q (at x = 0 too),
    so that the differences are set up on a polynomial of degree below q.
    """
    folded = coeffs[:q]
    for e in range(q, len(coeffs)):
        folded[(e - 1) % (q - 1) + 1] += coeffs[e]
    coeffs = [c % q for c in folded]
    if not any(coeffs[1:]):
        return repeat(sum(coeffs), q)
    width = horner(coeffs, q + len(coeffs) - 1).bit_length() + 1
    diffs, scale = [], 1
    for k in range(len(coeffs)):
        acc, quotient = 0, []
        for c in reversed(coeffs):
            acc = acc * k + c
            quotient.append(acc)
        diffs.append(quotient.pop() * scale)
        coeffs, scale = quotient[::-1], scale * (k + 1)
    return _stepped(_packed(diffs, width), width, q)


def _stepped(s: int, width: int, q: int):
    """Yield the lowest field of s mod q, then step s += s >> width; q times."""
    mask = (1 << width) - 1
    for _ in range(q):
        yield (s & mask) % q
        s += s >> width


def _roots_mod(coeffs: list, q: int) -> list:
    """The roots in 0..q-1 of the int polynomial sum(coeffs[i] x^i) mod q, increasing.

    Read off :func:`_values_mod`; every x is a root of the zero polynomial.
    """
    return [t for t, v in enumerate(_values_mod(coeffs, q)) if not v]


def _quadratic_zeros(c0: int, c1: int, c2: int, p: int):
    """All z in F_p with c2 z^2 + c1 z + c0 = 0; every z for the zero polynomial.

    The coefficients are residues mod p; a quadratic is solved by
    :func:`_quadratics_solved` on :func:`squares_table`.
    """
    if c2:
        ys = squares_table(p).get((c1 * c1 - 4 * c2 * c0) % p, ())
        inverses = [pow(2 * c2, -1, p)] if ys else []
        return [z for _, z in _quadratics_solved([(0, c1, c2, ys)], inverses, p)]
    if c1:
        return [-c0 * pow(c1, -1, p) % p]
    return range(p) if c0 == 0 else []


def _quadratics_solved(quadratics, inverses, p: int) -> list:
    """The pairs (key, z) for the zeros z = (y - c1) / (2 c2) mod p of quadratics.

    Each quadratic c2 z^2 + c1 z + c0 is given as (key, c1, c2, ys), with ys
    the square roots y of c1^2 - 4 c0 c2 mod p, and 1 / (2 c2) in ``inverses``.
    """
    return [(k, (y - c1) * h % p) for (k, c1, _, ys), h in zip(quadratics, inverses) for y in ys]


def _dot(*pairs) -> list:
    """The sum of the products f g over pairs of int polynomials, lowest term first."""
    out = [0] * max(len(f) + len(g) - 1 for f, g in pairs)
    for f, g in pairs:
        for i, x in enumerate(f):
            if x:
                for j, y in enumerate(g):
                    out[i + j] += x * y
    return out
