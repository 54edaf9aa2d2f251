"""chordcubic benchmark: time-to-verdict through the CLI front door.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload small-mix --seed 1 --seconds 20 --trace 0

Requests from the seeded stream of one workload (see workloads.py) go to
``chordcubic.cli.main(argv)`` in this process, with stdout captured, in a
closed loop with one client: each request is sent when the previous one
has returned.  One process, no threads.  The run lasts ``--seconds`` and
always completes the workload's first pass, whose stdout bytes are
digested.  Every output is checked against the independent oracle
(oracle.py).

With ``--trace 0`` the end-to-end metrics are measured untraced:

* ``setup_s`` - median over fresh interpreters of the time from spawn until
  ``chordcubic.cli`` is imported and its parser built (every CLI call pays it);
* ``request_p50_s`` - median latency of one ``cli.main`` call;
* ``points_per_s`` - points of E(F_p), counted by the oracle, per second of
  the requests that carry a prime;
* ``peak_rss_mb`` - peak resident memory of this process.

Times are scaled to a reference machine speed by calibrations interleaved
with the requests, taken inside long requests and bracketing each spawn
(speed.py); the unscaled figures are in the details line.

With ``--trace 1`` each request of the first pass runs once traced and once
untraced, and the per-layer metrics come from the spans (spans.py), which
are written to ``bench/out/``.  Per-layer times are unscaled.

Standard output ends with a details line (provenance, stdout digest,
sample counts, unscaled figures, the 90th-percentile latency when the run
holds at least 100 requests, the failed share and the failed requests, the
per-function table of a traced run) and then the result line
``{"correct", "attempted", "failed", "metrics"}``.  A request fails when it
raised or its exit code or verdicts differ from the known answer.  The
details line's ``failed`` and ``failed_frac`` count every such request and
``known_defect`` those that are the documented small-image degree defect
(``workloads.is_known_defect``); each is listed.  The result line's
``failed`` counts the others, so it stays 0 while the program answers as
known, however many requests fit in the run.  ``correct`` is false when any
of those others occurred, or when one request gave two different outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import OrderedDict
from itertools import islice
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SCHEMA = 1
SETUP_REPEATS = 15
WARMUP_SECONDS = 2.0
P90_MIN_SAMPLES = 100
SETUP_CODE = (
    "import time, chordcubic.cli as cli\n"
    "cli.main([])\n"
    "print(time.monotonic())\n"
)


def measure_setup(repeats: int) -> tuple:
    """Seconds from spawning python until chordcubic.cli is imported and its parser built.

    Returns the unscaled samples and the samples scaled by the calibrations
    bracketing each spawn.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    raw, scaled = [], []
    for i in range(repeats + 1):
        before = statistics.median(speed.calibrate() for _ in range(3))
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        elapsed = float(done.stdout.split()[-1]) - started
        after = statistics.median(speed.calibrate() for _ in range(3))
        if i:  # the first spawn only compiles bytecode
            raw.append(elapsed)
            scaled.append(elapsed * speed.REFERENCE_S * 2 / (before + after))
    return raw, scaled


def call(cli, request) -> tuple:
    """One closed-loop request: (exit code or None, stdout, seconds, error)."""
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(request.argv))
        error = None
    except Exception as exc:  # a raising request is a failed request, not a crash
        code, error = None, f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), time.perf_counter() - started, error


def warm_up(cli, workload: str, seed: int):
    started = time.perf_counter()
    for request in workloads.stream(workload, seed, "warmup"):
        call(cli, request)
        if time.perf_counter() - started >= WARMUP_SECONDS:
            return


# Identical requests recur within a few hundred (``identity`` in small-mix,
# the repeated pass of a traced run), so only that many outputs are kept.
# The harness's own memory must not grow with the number of requests, or
# peak_rss_mb would rise whenever the program got faster.
REMEMBERED = 512


DEFECT_NOTE = " (the known small-image degree defect)"


class Outcomes:
    """Checks every request against the oracle and keeps the tallies."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known_defect = 0
        self.failures = {}
        self.wrong = []
        self.digest = hashlib.sha256()
        self._seen = OrderedDict()  # argv -> (exit code, stdout sha256, reason)

    def add(self, request, code, stdout, error, digest=False):
        self.attempted += 1
        data = stdout.encode("utf-8")
        if digest:
            self.digest.update(data)
        key = tuple(request.argv)
        output = (code, hashlib.sha256(data).digest())
        seen = self._seen.get(key)
        if seen is not None and seen[:2] == output:
            reason = seen[2]
            self._seen.move_to_end(key)
        else:
            if seen is not None:
                self.wrong.append(f"{request}: output differs from an identical earlier request")
            reason = error or oracle.check(request.kind, request.known, code, stdout)
            if reason is not None:
                if workloads.is_known_defect(request, code, stdout):
                    reason += DEFECT_NOTE
                else:
                    self.wrong.append(f"{request}: {reason}")
            self._seen[key] = (*output, reason)
            if len(self._seen) > REMEMBERED:
                self._seen.popitem(last=False)
        if reason is not None:
            self.failed += 1
            self.known_defect += reason.endswith(DEFECT_NOTE)
            entry = self.failures.setdefault(str(request), {"reason": reason, "times": 0})
            entry["times"] += 1

    def details(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_frac": self.failed / self.attempted,
            "known_defect": self.known_defect,
            "failed_requests": [{"request": r, **v} for r, v in self.failures.items()],
            "wrong_answers": self.wrong,
        }


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def measured_run(cli, workload: str, seed: int, seconds: float, outcomes: Outcomes):
    """Untraced closed loop; returns end-to-end metrics, sample counts and extra figures."""
    _, pass_len = workloads.WORKLOADS[workload]
    probe = speed.SpeedProbe()
    # Per request: start, end, time without in-request calibrations and #E
    # (0 without a prime), in arrays so that the harness's memory stays flat
    # however many requests run.
    begins, ends, nets, points = array("d"), array("d"), array("d"), array("q")
    started = time.perf_counter()
    for i, request in enumerate(workloads.stream(workload, seed)):
        if i >= pass_len and time.perf_counter() - started >= seconds:
            break
        probe.sample()
        paused = probe.paused
        begin = time.perf_counter()
        with probe.ticking():
            code, stdout, elapsed, error = call(cli, request)
        begins.append(begin)
        ends.append(begin + elapsed)
        nets.append(elapsed - (probe.paused - paused))
        points.append(request.points if "prime" in request.params else 0)
        outcomes.add(request, code, stdout, error, digest=i < pass_len)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe.sample(every=0)

    scaled = [net * probe.scale(begin, end) for begin, end, net in zip(begins, ends, nets)]
    prime = [i for i, n in enumerate(points) if n]
    total_points = sum(points)
    metrics = {
        "points_per_s": _metric(total_points / sum(scaled[i] for i in prime), "1/s"),
        "request_p50_s": _metric(statistics.median(scaled), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    samples = {"request_p50_s": len(scaled), "points_per_s": len(prime)}
    extra = {
        "unscaled": {
            "points_per_s": total_points / sum(nets[i] for i in prime),
            "request_p50_s": statistics.median(nets),
        },
        "calibration_s": statistics.median(probe.samples),
    }
    if len(scaled) >= P90_MIN_SAMPLES:
        extra["request_p90_s"] = _metric(statistics.quantiles(scaled, n=10)[-1], "s")
    else:
        extra["request_p90_s"] = f"not reported: {len(scaled)} < {P90_MIN_SAMPLES} requests"
    samples["calibration"] = len(probe.samples)
    return metrics, samples, extra


# Per-layer times reported in the result line: only layers that every
# workload reaches, so no reported time is a constant zero.  The details
# line has calls, total_s and self_s of every spanned function.
TIMED_MODULES = ("cli", "verify", "plane", "chord", "curve")
TIMED_FUNCTIONS = ("cli.main", "curve.enumerate_points", "curve.group_add", "chord.line_through")


def _traced_call(cli, request, tracer) -> tuple:
    tracer.install()
    try:
        return call(cli, request)
    finally:
        tracer.uninstall()


def traced_run(cli, workload: str, seed: int, seconds: float, outcomes: Outcomes):
    """Passes over the first pass's requests, each run traced and untraced; per-layer metrics.

    The traced and untraced run of one request follow each other, so both
    see the same machine speed and their difference is the tracing
    overhead; which one goes first alternates, so warm caches favour
    neither.
    """
    _, pass_len = workloads.WORKLOADS[workload]
    requests = list(islice(workloads.stream(workload, seed), pass_len))
    traced_s, untraced_s, tables, first = [], [], [], None
    started = time.perf_counter()
    # Start another pass only if it fits in the time left.
    while first is None or time.perf_counter() - started + traced_s[-1] + untraced_s[-1] <= seconds:
        tracer = spans.Tracer()
        traced = untraced = 0.0
        for i, request in enumerate(requests):
            tracer.request = i
            for with_trace in (True, False) if i % 2 == 0 else (False, True):
                if with_trace:
                    code, stdout, elapsed, error = _traced_call(cli, request, tracer)
                    traced += elapsed
                    outcomes.add(request, code, stdout, error, digest=first is None)
                else:
                    code, stdout, elapsed, error = call(cli, request)
                    untraced += elapsed
                    outcomes.add(request, code, stdout, error)
        traced_s.append(traced)
        untraced_s.append(untraced)
        tables.append(tracer.summary())
        if first is None:
            first = tracer
        else:
            tracer.spans.clear()

    table = {
        name: {key: statistics.median(t[name][key] for t in tables) for key in ("total_s", "self_s")}
        | {"calls": tables[0][name]["calls"]}
        for name in spans.SPAN_NAMES
    }
    counters = first.counters
    metrics = {f"{name}.calls": _metric(table[name]["calls"], "count") for name in spans.SPAN_NAMES}
    for module in TIMED_MODULES:
        own = statistics.median(
            sum(row["self_s"] for name, row in t.items() if name.startswith(module + ".")) for t in tables
        )
        metrics[f"{module}.self_s"] = _metric(own, "s")
    for name in TIMED_FUNCTIONS:
        metrics[f"{name}.self_s"] = _metric(table[name]["self_s"], "s")
    scanned = counters["plane.scan_points"]
    metrics.update(
        {
            "scalars.constructions": _metric(counters["scalars.constructions"], "count"),
            "scalars.inversions": _metric(counters["scalars.inversions"], "count"),
            "verify.reports.fail": _metric(counters["verify.reports.fail"], "count"),
            "verify.reports.skipped": _metric(counters["verify.reports.skipped"], "count"),
            "plane.scan_points": _metric(scanned, "count"),
            "plane.scan_yield": _metric(counters["plane.scan_zeros"] / scanned if scanned else 0.0, "ratio"),
            "plane.interp_entries": _metric(counters["plane.interp_entries"], "count"),
            "curve.point_order.adds_per_call": _metric(first.adds_per_point_order(), "adds/call"),
            "trace.traced_s": _metric(statistics.median(traced_s), "s"),
            "trace.untraced_s": _metric(statistics.median(untraced_s), "s"),
            "trace.overhead_s": _metric(statistics.median(traced_s) - statistics.median(untraced_s), "s"),
        }
    )
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"{workload}-seed{seed}.spans.tsv"
    first.write(spans_path)
    extra = {
        "traced_passes": len(traced_s),
        "pass_requests": len(requests),
        "spans": len(first.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "counters": dict(counters, note="plane.scan_points is computed as the sum of p^2+p+1 per scan"),
        "functions": table,
    }
    return metrics, extra


def _commit():
    """HEAD when the checkout is itself a git work tree, else None."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except OSError:
        return None
    lines = done.stdout.split()
    if done.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "chordcubic" / "cli.py").is_file():
        print(f"no chordcubic sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from chordcubic import cli

    details = {
        "schema": SCHEMA,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    outcomes = Outcomes()
    if args.trace:
        warm_up(cli, args.workload, args.seed)
        metrics, extra = traced_run(cli, args.workload, args.seed, args.seconds, outcomes)
    else:
        raw_setup, setup = measure_setup(SETUP_REPEATS)
        warm_up(cli, args.workload, args.seed)
        metrics, samples, extra = measured_run(cli, args.workload, args.seed, args.seconds, outcomes)
        metrics["setup_s"] = _metric(statistics.median(setup), "s")
        extra["unscaled"]["setup_s"] = statistics.median(raw_setup)
        extra["samples"] = dict(samples, setup_s=len(setup))
    details.update(outcomes.details(), digest=outcomes.digest.hexdigest(), **extra)
    for failure in details["failed_requests"]:
        print(f"failed x{failure['times']}: {failure['request']}: {failure['reason']}", file=sys.stderr)
    print(json.dumps(details))
    result = {
        "correct": not outcomes.wrong,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed - outcomes.known_defect,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
