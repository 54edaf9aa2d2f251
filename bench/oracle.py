"""Independent known answers for chordcubic requests.

Everything here uses plain integers and ``fractions.Fraction`` and never
imports chordcubic, so a defect in the library cannot hide itself by
agreeing with its own oracle.  The answers come from the paper's
statements:

* ``#E(F_p) = 1 + sum_x (1 + chi(x^3 + a x^2 + b x))`` with ``chi`` the
  Legendre symbol by Euler's criterion; ``suite`` must report
  ``curve_points = #E`` and ``image_size = #E/2``, and the quotient count
  at ``p`` equals ``#E`` because isogenous curves have equal point counts;
* the flex claim is skipped exactly when ``a^2 - 4b`` is a non-residue
  mod p (no 2-torsion point other than beta) and passes otherwise;
* ``degree --order n > 2`` is skipped when E(F_p) has no point of order n
  and otherwise fails (acceptance criterion 7 is red by design);
  ``degree --order 2`` passes with an image of degree 3;
* ``cubic`` prints the content-normalised
  ``8b^3 UV^2 + 4b^2 U^2 W - 4ab^2 V^2 W - 4b W^3`` and its invariants;
* ``map`` prints the normalised line ``[y(x^2+b) : bx - x^3 : -2bxy]``.

:func:`check` compares one request's exit code and stdout against these
answers and returns ``None`` or a one-line description of the mismatch.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm


def legendre(v: int, p: int) -> int:
    """chi(v) in {-1, 0, 1} by Euler's criterion."""
    v %= p
    if v == 0:
        return 0
    return 1 if pow(v, (p - 1) // 2, p) == 1 else -1


def point_count(a: int, b: int, p: int) -> int:
    """#E(F_p) for y^2 = x^3 + a x^2 + b x, the point O included."""
    return 1 + sum(1 + legendre(x * x * x + a * x * x + b * x, p) for x in range(p))


def has_full_two_torsion(a: int, b: int, p: int) -> bool:
    """Whether x^2 + a x + b splits mod p (a^2 - 4b is a nonzero square)."""
    return legendre(a * a - 4 * b, p) == 1


def _affine_points(a: int, b: int, p: int) -> list:
    roots: dict[int, list[int]] = {}
    for y in range(p):
        roots.setdefault(y * y % p, []).append(y)
    return [
        (x, y)
        for x in range(p)
        for y in roots.get((x * x * x + a * x * x + b * x) % p, ())
    ]


def _add(P, Q, a: int, b: int, p: int):
    """Chord-and-tangent sum on plain residues; None is the zero point O."""
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + 2 * a * x1 + b) * pow(2 * y1, p - 2, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, p - 2, p) % p
    x3 = (lam * lam - a - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _mul(n: int, P, a: int, b: int, p: int):
    out = None
    while n:
        if n & 1:
            out = _add(out, P, a, b, p)
        P = _add(P, P, a, b, p)
        n >>= 1
    return out


def _prime_factors(n: int) -> list:
    return [q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q))]


def has_point_of_order(a: int, b: int, p: int, n: int) -> bool:
    """Whether E(F_p) has a point q with n q = O and (n/l) q != O for each prime l | n."""
    if n == 1:
        return True
    for P in _affine_points(a, b, p):
        if _mul(n, P, a, b, p) is None and all(
            _mul(n // q, P, a, b, p) is not None for q in _prime_factors(n)
        ):
            return True
    return False


def _frac_str(v) -> str:
    return str(Fraction(v))


def cubic_table(a: Fraction, b: Fraction) -> list:
    """Content-normalised image cubic as (key, value) pairs, descending lex."""
    coeffs = {
        (2, 0, 1): 4 * b * b,
        (1, 2, 0): 8 * b ** 3,
        (0, 2, 1): -4 * a * b * b,
        (0, 0, 3): -4 * b,
    }
    coeffs = {k: Fraction(c) for k, c in coeffs.items() if c != 0}
    den = lcm(*(c.denominator for c in coeffs.values()))
    num = gcd(*(c.numerator * (den // c.denominator) for c in coeffs.values()))
    lead = coeffs[max(coeffs)]
    factor = Fraction(den, num) * (1 if lead > 0 else -1)
    return [
        (f"U{i}V{j}W{k}", _frac_str(coeffs[(i, j, k)] * factor))
        for (i, j, k) in sorted(coeffs, reverse=True)
    ]


def cubic_invariants(a: Fraction, b: Fraction) -> dict:
    """e, c1, c2 and muInv of the depressed image cubic."""
    d = a * a - 4 * b
    return {
        "e": _frac_str(-8 * b ** 3 / d),
        "c1": _frac_str(-4 * a * b / d),
        "c2": _frac_str(-4 * b * b / d),
        "muInv": _frac_str(a / (2 * b)),
    }


def chord_line(a: Fraction, b: Fraction, point) -> str:
    """The normalised chord of an affine point, or of O (point None)."""
    if point is None or point == (0, 0):
        return "[1:0:0]"
    x, y = (Fraction(c) for c in point)
    line = [y * (x * x + b), b * x - x ** 3, -2 * b * x * y]
    lead = next(c for c in line if c != 0)
    return "[" + ":".join(_frac_str(c / lead) for c in line) + "]"


def expected(kind: str, params: dict) -> dict:
    """The known answer for one request: exit code and claim verdicts."""
    a, b = params["a"], params["b"]
    if kind == "identity":
        return {"exit": 0, "statuses": ["pass", "pass"]}
    if kind == "cubic":
        return {"exit": 0, "cubic": cubic_table(a, b), "invariants": cubic_invariants(a, b)}
    if kind == "map":
        point = params.get("point")
        shown = "[0:1:0]" if point is None else f"[{_frac_str(point[0])}:{_frac_str(point[1])}:1]"
        return {"exit": 0, "point": shown, "line": chord_line(a, b, point)}
    p = params["prime"]
    count = point_count(a, b, p)
    flex = "pass" if has_full_two_torsion(a, b, p) else "skipped"
    if kind == "suite":
        return {
            "exit": 0,
            "statuses": ["pass", "pass", "pass", "pass", flex, "pass"],
            "curve_points": count,
            "image_size": count // 2,
            "counts": {str(p): count},
        }
    if kind == "flexes":
        return {"exit": 0, "statuses": [flex]}
    if kind == "quotient":
        return {"exit": 0, "statuses": ["pass"], "counts": {str(p): count}}
    if kind == "degree":
        n = params["order"]
        if n == 2:
            return {"exit": 0, "statuses": ["pass"], "image_size": count // 2, "image_degree": 3}
        if has_point_of_order(a, b, p, n):
            return {"exit": 1, "statuses": ["fail"]}
        return {"exit": 0, "statuses": ["skipped"]}
    raise ValueError(f"unknown request kind {kind!r}")


def check(kind: str, known: dict, exit_code: int, stdout: str) -> str | None:
    """None when the output matches the known answer, else what differs."""
    if exit_code != known["exit"]:
        return f"exit code {exit_code}, expected {known['exit']}"
    try:
        return _check_payload(kind, known, json.loads(stdout))
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    except (KeyError, TypeError, AttributeError) as exc:
        return f"unexpected output shape: {exc!r}"


def _check_payload(kind: str, known: dict, payload) -> str | None:
    if kind == "cubic":
        if list(payload["cubic"].items()) != [tuple(kv) for kv in known["cubic"]]:
            return f"cubic table {payload['cubic']}, expected {dict(known['cubic'])}"
        if payload["invariants"] != known["invariants"]:
            return f"invariants {payload['invariants']}, expected {known['invariants']}"
        return None
    if kind == "map":
        got = (payload["point"], payload["line"])
        want = (known["point"], known["line"])
        return None if got == want else f"map {got}, expected {want}"

    reports = payload if kind == "identity" else payload["reports"]
    statuses = [r["status"] for r in reports]
    if statuses != known["statuses"]:
        witness = next((r["witness"] for r in reports if r["witness"]), "")
        return f"verdicts {statuses}, expected {known['statuses']} ({witness})"
    stats = {}
    for r in reports:
        stats.update(r["stats"])
    for key in ("curve_points", "image_size", "image_degree", "counts"):
        if key in known and stats.get(key) != known[key]:
            return f"{key} {stats.get(key)}, expected {known[key]}"
    return None
