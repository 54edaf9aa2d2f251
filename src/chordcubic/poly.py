"""Sparse exact polynomial arithmetic in the fixed variables {x, y, a, b}.

A polynomial is a dictionary mapping exponent quadruples
(e_x, e_y, e_a, e_b) to nonzero exact coefficients: ints and Fractions are
stored as given, anything else as its Fraction.  Only the public constructor
checks keys and converts coefficients; arithmetic builds its results, and
the constants it needs (an int or Fraction operand, q ** 0), through a
private one that only drops zeros, since sums of valid keys are valid and
ints and Fractions stay so under + and *.  This exact representation
makes polynomial identity testing fully reliable: two polynomials are equal
exactly when their term tables coincide, and the zero polynomial is the
empty table.

The one rewriting rule this module knows is reduction modulo the curve
relation y^2 = x^3 + a x^2 + b x (the cubic F, built once at import):
every term is rewritten until its y-degree is at most 1.  Ints stay ints
and other rationals stay Fractions.

Canonical term order is descending lexicographic on (e_y, e_x, e_a, e_b),
which fixes the textual form used in serialised output.
"""

from __future__ import annotations

from fractions import Fraction

VARIABLES = ("x", "y", "a", "b")
_VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}
_CONSTANT_KEY = (0, 0, 0, 0)


class MultiPoly:
    """Immutable sparse polynomial over the rationals in x, y, a, b."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for key, coeff in (terms or {}).items():
            if not isinstance(key, tuple) or len(key) != 4 or any(
                not isinstance(e, int) or e < 0 for e in key
            ):
                raise ValueError(f"exponent key must be 4 nonnegative ints, got {key!r}")
            c = coeff if type(coeff) in (int, Fraction) else Fraction(coeff)
            if c:
                clean[key] = c
        self.terms = clean

    @classmethod
    def _of(cls, table: dict) -> MultiPoly:
        """Trusts keys and int/Fraction coefficients; drops zero coefficients."""
        q = object.__new__(cls)
        q.terms = {key: c for key, c in table.items() if c}
        return q

    @classmethod
    def variable(cls, name: str) -> MultiPoly:
        if name not in _VAR_INDEX:
            raise ValueError(f"unknown variable {name!r}; expected one of {VARIABLES}")
        key = [0, 0, 0, 0]
        key[_VAR_INDEX[name]] = 1
        return cls({tuple(key): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return MultiPoly._of({_CONSTANT_KEY: other})
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self.terms)
        for key, coeff in rhs.terms.items():
            out[key] = out.get(key, 0) + coeff
        return MultiPoly._of(out)

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self.terms)
        for key, coeff in rhs.terms.items():
            out[key] = out.get(key, 0) - coeff
        return MultiPoly._of(out)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs - self

    def __neg__(self):
        return MultiPoly._of({key: -coeff for key, coeff in self.terms.items()})

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in rhs.terms.items():
                key = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2], k1[3] + k2[3])
                out[key] = out.get(key, 0) + c1 * c2
        return MultiPoly._of(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result, base = None, self
        while exponent:
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return MultiPoly._of({_CONSTANT_KEY: 1}) if result is None else result

    def __eq__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self.terms == rhs.terms

    def sorted_terms(self):
        """Terms in canonical order: descending lex on (e_y, e_x, e_a, e_b)."""
        return sorted(
            self.terms.items(),
            key=lambda item: (item[0][1], item[0][0], item[0][2], item[0][3]),
            reverse=True,
        )

    def __str__(self):
        if not self.terms:
            return "0"
        rendered = []
        for key, coeff in self.sorted_terms():
            parts = [str(coeff)]
            for i, e in enumerate(key):
                if e == 1:
                    parts.append(VARIABLES[i])
                elif e > 1:
                    parts.append(f"{VARIABLES[i]}^{e}")
            rendered.append("·".join(parts))
        return " + ".join(rendered)

    def __repr__(self):
        return f"MultiPoly({self})"


X = MultiPoly.variable("x")
Y = MultiPoly.variable("y")
A = MultiPoly.variable("a")
B = MultiPoly.variable("b")


def f_curve() -> MultiPoly:
    """The cubic x^3 + a x^2 + b x whose square-root locus is the curve."""
    return X ** 3 + A * X ** 2 + B * X


F = f_curve()


def reduce_mod_curve(q: MultiPoly) -> MultiPoly:
    """Rewrite y^2 -> x^3 + a x^2 + b x (:data:`F`) until every term has y-degree <= 1."""
    powers = [MultiPoly._of({_CONSTANT_KEY: 1})]
    out = {}
    for (ex, ey, ea, eb), coeff in q.terms.items():
        half, rem = divmod(ey, 2)
        while len(powers) <= half:
            powers.append(powers[-1] * F)
        # f has no y, so every term of f^half keeps the remainder y^rem.
        for (fx, _, fa, fb), c in powers[half].terms.items():
            key = (ex + fx, rem, ea + fa, eb + fb)
            out[key] = out.get(key, 0) + coeff * c
    return MultiPoly._of(out)
