"""Run every workload untraced and traced, and print one table.

Usage, from the root of a source checkout:

    python3 bench/report.py --seed 1 --seconds 30

Each run is a fresh ``bench/run.py`` process, as the benchmark is run
elsewhere.  The table lists the end-to-end metrics of each workload (with
the 90th-percentile latency and the failed share from the details line),
the per-layer metrics of the traced run, the tracing overhead, and the
failed requests.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    details, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    return details, result


def _row(name, value, unit, note=""):
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:40s} {shown:>14s} {unit:10s} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)
    for workload in workloads.WORKLOADS:
        details, result = run(workload, args.seed, args.seconds, 0)
        samples = details["samples"]
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} digest={details['digest'][:16]}")
        for name, metric in result["metrics"].items():
            _row(name, metric["value"], metric["unit"], f"n={samples.get(name, '-')}")
        p90 = details["request_p90_s"]
        if isinstance(p90, dict):
            _row("request_p90_s", p90["value"], p90["unit"], f"n={samples['request_p50_s']}")
        else:
            _row("request_p90_s", "-", "s", p90)
        _row("failed_frac", details["failed_frac"], "share",
             f"n={result['attempted']}, known defect {details['known_defect']}")
        for failure in details["failed_requests"]:
            print(f"    failed x{failure['times']}: {failure['request']}: {failure['reason']}")

        details, result = run(workload, args.seed, args.seconds, 1)
        print(f"  traced: {details['traced_passes']} pass(es) of {details['pass_requests']} requests, "
              f"{details['spans']} spans in {details['spans_file']}")
        for name, metric in result["metrics"].items():
            if not name.endswith(".calls") or metric["value"]:
                _row(name, metric["value"], metric["unit"])
        for name, row in details["functions"].items():
            if row["calls"]:
                _row(name, row["self_s"], "s self", f"total {row['total_s']:.4g} s, {row['calls']} calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
