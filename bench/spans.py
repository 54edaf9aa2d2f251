"""In-memory spans and counters around chordcubic's public functions.

:class:`Tracer` wraps, from outside the package, every function listed in
:data:`SPANNED` in each chordcubic module that binds it, so internal calls
such as ``scalar_mul -> group_add`` are recorded too.  Each call becomes a
span ``(id, parent, request, name, start, end)``; spans stay in memory
until the run writes them out.  :func:`self_times` takes a span's duration
minus the part of it covered by its children.  Counters are taken at the
same boundaries and are deterministic for a given request sequence:
``PrimeFieldScalar`` constructions and inversions, failed and skipped
reports, ``p^2+p+1`` points per projective scan (computed, not observed),
the zeros those scans yield (counted at ``plane._zero_points_over_Fp``; the
tracer refuses to install when that generator is gone, rather than report
zero), the matrix entries ranked by interpolation and the ``group_add``
calls made anywhere below ``point_order``.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

MODULES = ("cli", "verify", "plane", "chord", "curve", "poly", "scalars")

SPANNED = {
    "cli": ("main",),
    "verify": (
        "verify_chord_incidence_symbolic",
        "verify_identity_symbolic",
        "verify_cross_checks",
        "verify_fibers",
        "verify_flex_correspondence",
        "verify_quotient",
        "verify_degree_remark",
    ),
    "plane": (
        "count_zero_points_over_Fp",
        "smooth_over_Fp",
        "find_flexes_over_Fp",
        "is_flex",
        "hessian_cubic",
        "min_interpolating_degree",
    ),
    "chord": ("chord_map", "line_through", "chord_cubic", "weierstrass_form"),
    "curve": (
        "enumerate_points",
        "group_add",
        "translate_by_beta",
        "scalar_mul",
        "point_order",
        "three_torsion_flexes",
    ),
    "poly": ("reduce_mod_curve",),
}

SPAN_NAMES = tuple(f"{m}.{f}" for m, names in SPANNED.items() for f in names)
SCANS = ("count_zero_points_over_Fp", "smooth_over_Fp", "find_flexes_over_Fp")


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals.

    ``spans`` holds ``(id, parent, start, end)`` tuples; parent is None or
    a negative id for a root span.
    """
    children = defaultdict(list)
    for _, parent, start, end in spans:
        if parent is not None and parent >= 0:
            children[parent].append((start, end))
    out = {}
    for span_id, _, start, end in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[span_id] = (end - start) - covered
    return out


class Tracer:
    """Patches chordcubic in place while installed; restores it on uninstall."""

    def __init__(self):
        self.spans = []
        self.request = -1
        self.counters = dict.fromkeys(
            (
                "scalars.constructions",
                "scalars.inversions",
                "verify.reports.fail",
                "verify.reports.skipped",
                "plane.scan_points",
                "plane.scan_zeros",
                "plane.interp_entries",
                "curve.point_order.adds",
            ),
            0,
        )
        self._stack = []
        self._order_depth = 0  # point_order spans open on the stack
        self._next_id = 0
        self._patches = []

    def install(self):
        plane = importlib.import_module("chordcubic.plane")
        if not hasattr(plane, "_zero_points_over_Fp"):
            raise RuntimeError(
                "chordcubic.plane._zero_points_over_Fp is gone: move the plane.scan_zeros "
                "counter in bench/spans.py to the new scan"
            )
        mods = [importlib.import_module("chordcubic")]
        mods += [importlib.import_module(f"chordcubic.{m}") for m in MODULES]
        for module, names in SPANNED.items():
            home = importlib.import_module(f"chordcubic.{module}")
            for fn in names:
                original = getattr(home, fn)
                wrapper = self._span(f"{module}.{fn}", original)
                for mod in mods:
                    if getattr(mod, fn, None) is original:
                        self._patch(mod, fn, wrapper)
        scalar = importlib.import_module("chordcubic.scalars").PrimeFieldScalar
        self._patch(scalar, "__init__", self._count("scalars.constructions", scalar.__init__))
        self._patch(scalar, "inverse", self._count("scalars.inversions", scalar.inverse))
        self._patch(plane, "_zero_points_over_Fp", self._count_yields(plane._zero_points_over_Fp))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _count(self, key, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _count_yields(self, gen):
        counters = self.counters

        def counted(*args, **kwargs):
            for item in gen(*args, **kwargs):
                counters["plane.scan_zeros"] += 1
                yield item

        return counted

    def _span(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        short = name.split(".", 1)[1]
        clock = time.perf_counter
        is_order = name == "curve.point_order"
        is_add = name == "curve.group_add"

        def on_return(args, kwargs, result):
            if short.startswith("verify_"):
                status = getattr(result, "status", None)
                if status in ("fail", "skipped"):
                    counters[f"verify.reports.{status}"] += 1
            elif short in SCANS:
                p = args[1] if len(args) > 1 else kwargs["p"]
                counters["plane.scan_points"] += p * p + p + 1
            elif short == "min_interpolating_degree":
                rows = len(args[0] if args else kwargs["points"])
                dmax = args[1] if len(args) > 1 else kwargs.get("dmax", 8)
                top = result.degree if result else dmax
                counters["plane.interp_entries"] += sum(
                    rows * (d + 1) * (d + 2) // 2 for d in range(1, top + 1)
                )

        def spanned(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            if is_add and self._order_depth:
                counters["curve.point_order.adds"] += 1
            self._order_depth += is_order
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._order_depth -= is_order
                stack.pop()
                spans.append((span_id, parent, self.request, name, start, end))
            on_return(args, kwargs, result)
            return result

        return spanned

    def summary(self) -> dict:
        """Per span name: calls, total_s and self_s over the recorded spans."""
        own = self_times([(s[0], s[1], s[4], s[5]) for s in self.spans])
        table = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        for span_id, _, _, name, start, end in self.spans:
            row = table[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += own[span_id]
        return table

    def adds_per_point_order(self) -> float:
        """group_add calls with a point_order span open, per point_order call."""
        calls = sum(1 for s in self.spans if s[3] == "curve.point_order")
        return self.counters["curve.point_order.adds"] / calls if calls else 0.0

    def write(self, path):
        """Spans as tab-separated lines, times relative to the first span."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\trequest\tname\tstart_s\tend_s\n")
            for span_id, parent, request, name, start, end in self.spans:
                out.write(
                    f"{span_id}\t{parent}\t{request}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}\n"
                )
