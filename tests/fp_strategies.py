"""Hypothesis strategies shared by the differential tests over F_p.

Imported by bare name: pytest puts this directory on ``sys.path`` for the
test modules beside it.  Every strategy takes the ``strategies`` module as
``st``, so that importing this file never needs hypothesis; the tests get
it from :func:`hypothesis_api`, which skips them when it is absent.
"""

from fractions import Fraction

import pytest

from chordcubic.scalars import PrimeFieldScalar, is_prime

PRIMES_BELOW_200 = [p for p in range(5, 200) if is_prime(p)]


def hypothesis_api(max_examples: int = 40):
    """given, a settings decorator and the strategies module, or skip."""
    hypothesis = pytest.importorskip("hypothesis")
    settings = hypothesis.settings(max_examples=max_examples, deadline=None)
    return hypothesis.given, settings, hypothesis.strategies


def curves(st):
    """Random valid (a, b, p): b (a^2 - 4b) != 0 mod p, 3 < p < 200."""

    @st.composite
    def draw_curve(draw):
        p = draw(st.sampled_from(PRIMES_BELOW_200))
        a = draw(st.integers(0, p - 1))
        b = draw(st.integers(1, p - 1).filter(lambda b: (a * a - 4 * b) % p))
        return a, b, p

    return draw_curve()


def curve_residues(a: int, b: int, p: int) -> list:
    """Every point of y^2 z = x^3 + a x^2 z + b x z^2 over F_p as an int triple."""
    roots = {}
    for y in range(p):
        roots.setdefault(y * y % p, []).append(y)
    points = [(0, 1, 0)]
    for x in range(p):
        points += [(x, y, 1) for y in roots.get((x ** 3 + a * x * x + b * x) % p, ())]
    return points


def entries(st, p: int, r: int):
    """The residue r as an int, a scalar mod p or an exact Fraction equal to r mod p."""
    fractions = st.builds(
        lambda d, k: Fraction(r * d + k * p, d),
        st.integers(1, 60).filter(lambda d: d % p),
        st.integers(-3, 3),
    )
    return st.integers(-2, 2).map(lambda k: r + k * p) | st.just(PrimeFieldScalar(r, p)) | fractions


def refused_entries(st, p: int):
    """Entries F_p refuses: a denominator divisible by p, a scalar mod another prime, a float, a bool."""
    return st.one_of(
        st.integers(1, 4).map(lambda k: Fraction(1, k * p)),
        st.builds(
            PrimeFieldScalar,
            st.integers(0, 9),
            st.sampled_from([q for q in PRIMES_BELOW_200 if q != p]),
        ),
        st.just(1.0),
        st.just(True),
    )


def triples(st, p: int, on_curve: list):
    """A triple of mixed entries over F_p.

    Its residues are a point of ``on_curve`` scaled by a unit, a random
    triple (mostly off the curve) or zero; one entry may be swapped for a
    refused one.
    """

    @st.composite
    def draw_triple(draw):
        kind = draw(st.sampled_from(["scaled", "scaled", "random", "zero"]))
        if kind == "scaled":
            unit = draw(st.integers(1, p - 1))
            residues = [c * unit % p for c in draw(st.sampled_from(on_curve))]
        elif kind == "random":
            residues = [draw(st.integers(0, p - 1)) for _ in range(3)]
        else:
            residues = [0, 0, 0]
        coords = [draw(entries(st, p, r)) for r in residues]
        refused = draw(st.integers(0, 8))
        if refused < 3:
            coords[refused] = draw(refused_entries(st, p))
        return tuple(coords)

    return draw_triple()


def outcome(build):
    """What ``build()`` gives: the type, value and modulus of each coordinate,
    or the type and message of the exception it raises."""
    try:
        coords = build()
    except Exception as exc:  # the exact type is part of what is compared
        return type(exc), str(exc)
    return [(type(c), getattr(c, "value", c), getattr(c, "modulus", None)) for c in coords]
