"""Seeded request streams, one per benchmark workload.

A workload is an endless, deterministic stream of CLI requests drawn from
``random.Random(f"{workload}:{seed}:{label}")``; the program only ever sees
the generated argv.  Each stream cycles through a fixed template of request
kinds, so every run holds the same mix whatever the seed, and draws fresh
curves and primes for every slot, so repeated requests do not hand a
result cache free hits.

* ``suite-large`` - single-curve ``suite`` runs at primes 1009-1021, where
  the O(p^2) projective zero-point scans of ``plane`` take about 77% of the
  request time and the per-point cross-checks most of the rest.  Every
  curve has full rational 2-torsion, so all four scans run.  The primes lie
  within 1.2% of each other, so the cost of a request barely depends on
  the seed.
* ``small-mix`` - about 150 short requests per pass at primes below 128
  and over Q.  The plane scans take 22% of the time, argument parsing,
  JSON, ``cubic`` and ``map`` 12-13%, the symbolic identities 7-8%, and
  the per-point group and chord work of the checks most of the rest.  A
  change that adds per-request set-up shows here.  It includes ``degree --order 2`` at small
  primes, whose wrong ``fail`` verdict on an image of at most five points
  is a known defect (:func:`is_known_defect`) and is counted, not
  filtered.
* ``degree`` - ``degree --order n`` for n = 2..6 at primes 101-113.
  ``point_order`` with its repeated ``group_add`` takes 75-81% of the time
  and ``min_interpolating_degree`` 14-18%; no plane scan runs.  For n > 2
  half of the curves have a point of order n and half do not, which then
  costs a full order scan.  The cost of one request grows like p^2 and
  varies sixfold with the curve at a fixed p, so the primes stay small: a
  30 s run then holds about 150 requests and its median is steady across
  seeds (primes up to 400 gave 25% spreads).

The shares are untraced, measured on the first pass of seed 1
(suite-large), seeds 1-3 (small-mix) and seeds 1-5 (degree) with Python
3.11 on a 2-vCPU Intel Xeon VM.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracle


def _primes(lo: int, hi: int) -> list:
    return [q for q in range(max(lo, 5), hi) if all(q % r for r in range(2, int(q ** 0.5) + 1))]


SUITE_LARGE_PRIMES = _primes(1000, 1022)
SMALL_PRIMES = _primes(5, 128)
DEGREE_PRIMES = _primes(100, 115)


@dataclass
class Request:
    """One CLI call: its kind, exact parameters, argv and known answer."""

    kind: str
    params: dict
    argv: list
    _known: dict | None = field(default=None, repr=False)

    @property
    def known(self) -> dict:
        if self._known is None:
            self._known = oracle.expected(self.kind, self.params)
        return self._known

    @property
    def points(self) -> int:
        """#E(F_p) by the oracle, for a request that carries a prime."""
        return oracle.point_count(self.params["a"], self.params["b"], self.params["prime"])

    def __str__(self) -> str:
        return "chordcubic " + " ".join(self.argv)


def _curve_mod_p(rng, p: int, split: bool | None = None):
    """Integer coefficients in [-50, 50] that give a smooth curve mod p."""
    while True:
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        if b % p == 0 or (a * a - 4 * b) % p == 0:
            continue
        if split is None or oracle.has_full_two_torsion(a, b, p) == split:
            return a, b


def _prime_request(kind: str, a: int, b: int, p: int, **extra) -> Request:
    argv = [kind, f"--a={a}", f"--b={b}", f"--prime={p}"]
    argv += [f"--{k}={v}" for k, v in extra.items()]
    return Request(kind, {"a": a, "b": b, "prime": p, **extra}, argv)


def _rational(rng, num: int, den: int) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _cubic_request(rng) -> Request:
    while True:
        a, b = _rational(rng, 20, 9), _rational(rng, 20, 9)
        if b != 0 and a * a != 4 * b:
            return Request("cubic", {"a": a, "b": b}, ["cubic", f"--a={a}", f"--b={b}"])


def _map_request(rng) -> Request:
    """A rational point first, then the b that puts it on the curve."""
    while True:
        x, y, a = _rational(rng, 9, 5), _rational(rng, 9, 5), _rational(rng, 9, 4)
        if x == 0:
            continue
        b = (y * y - x ** 3 - a * x * x) / x
        if b != 0 and a * a != 4 * b:
            argv = ["map", f"--a={a}", f"--b={b}", f"--x={x}", f"--y={y}"]
            return Request("map", {"a": a, "b": b, "point": (x, y)}, argv)


def suite_large(rng):
    while True:
        p = rng.choice(SUITE_LARGE_PRIMES)
        yield _prime_request("suite", *_curve_mod_p(rng, p, split=True), p)


# The reproduction of the small-image degree defect (ROADMAP item 4): the image
# has two points, so its degree is undetermined and the verdict is a wrong fail.
KNOWN_DEFECT = ("degree", 3, 4, 5, 2)
# Any five points of the plane lie on a conic, so an order-2 image of at most
# five lines interpolates below degree 3.  Over all smooth curves at p <= 23
# exactly these requests fail (p = 5 up to 17), and every larger image passes.
DEFECT_MAX_IMAGE = 5


def is_known_defect(request: Request, code, stdout: str) -> bool:
    """Whether a mismatch is the documented defect: a ``fail`` caused by a too-small image.

    Only a ``degree --order 2`` request whose known image has at most
    DEFECT_MAX_IMAGE points qualifies, and only when the program exits 1
    with the image-degree witness, a degree below 3 and the right image
    size.  Every other mismatch is a wrong answer.
    """
    known = request.known
    if request.kind != "degree" or request.params["order"] != 2 or code != 1:
        return False
    if known["image_size"] > DEFECT_MAX_IMAGE:
        return False
    try:
        (report,) = json.loads(stdout)["reports"]
        stats = report["stats"]
        return (
            report["status"] == "fail"
            and report["witness"].startswith("image interpolates at degree")
            and stats["image_size"] == known["image_size"]
            and stats["image_degree"] is not None
            and stats["image_degree"] < known["image_degree"]
        )
    except (ValueError, KeyError, TypeError):
        return False


def small_mix(rng):
    kind, a, b, p, order = KNOWN_DEFECT
    yield _prime_request(kind, a, b, p, order=order)
    while True:
        for kind in ("suite", "flexes", "quotient", "degree", "identity", "cubic", "map"):
            if kind == "identity":
                yield Request("identity", {"a": None, "b": None}, ["identity"])
            elif kind == "cubic":
                yield _cubic_request(rng)
            elif kind == "map":
                yield _map_request(rng)
            else:
                p = rng.choice(SMALL_PRIMES)
                extra = {"order": 2} if kind == "degree" else {}
                yield _prime_request(kind, *_curve_mod_p(rng, p), p, **extra)


# (order, whether E(F_p) has a point of that order).  A missing order costs a
# full order scan and a present one stops at the first hit, so a fixed share
# of each keeps the run's mix, and its median, the same for every seed.
DEGREE_TEMPLATE = ((2, True),) + tuple((n, has) for n in range(3, 7) for has in (True, False))


def degree(rng):
    while True:
        for order, present in DEGREE_TEMPLATE:
            p = rng.choice(DEGREE_PRIMES)
            a, b = _curve_mod_p(rng, p)
            while oracle.has_point_of_order(a, b, p, order) != present:
                a, b = _curve_mod_p(rng, p)
            yield _prime_request("degree", a, b, p, order=order)


# name -> (stream, requests in one pass).  A run always completes one pass,
# whose stdout bytes are digested and whose traced counters must repeat.
WORKLOADS = {
    "suite-large": (suite_large, 3),
    "small-mix": (small_mix, 155),
    "degree": (degree, len(DEGREE_TEMPLATE)),
}


def stream(workload: str, seed: int, label: str = "measure"):
    """The request stream of a workload; ``label`` separates warm-up draws."""
    make, _ = WORKLOADS[workload]
    return make(random.Random(f"{workload}:{seed}:{label}"))
