"""Command-line front door emitting deterministic JSON.

One subcommand per verified claim keeps CI logs legible:

* ``identity`` - the two symbolic checks (incidence + image cubic),
* ``cubic``    - image cubic coefficient table and closed-form invariants,
* ``map``      - chord of a single point,
* ``suite``    - full finite-field run (optionally over sampled curves),
* ``degree``   - translation chord of a given order,
* ``quotient`` - 2-isogeny identification and point counts,
* ``flexes``   - flex correspondence.

Exit status: 0 when every emitted report passes or is skipped, 1 when any
check fails, 2 on rejected input.  JSON goes to stdout; diagnostics to
stderr.  Identical requests produce byte-identical JSON: volatile wall
clock timings are only shown in ``--format text``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .chord import chord_cubic, chord_map, cubic_invariants
from .curve import CurvePoint, reduce_params, validate_curve
from .scalars import check_modulus
from .verify import (
    FpContext,
    run_full_suite,
    sample_params,
    verify_chord_incidence_symbolic,
    verify_degree_remark,
    verify_flex_correspondence,
    verify_identity_symbolic,
    verify_quotient,
)

DEFAULT_QUOTIENT_PRIMES = (101, 211, 409)


class CliError(Exception):
    """Rejected input; rendered as a diagnostic record with exit status 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"malformed rational {text!r}: {exc}") from exc


def _curve_json(params) -> dict:
    return {"a": str(params.a), "b": str(params.b)}


def _reports_payload(reports) -> list:
    return [r.to_dict() for r in reports]


def _claim_result(params, key, value, reports):
    """The (payload, reports) of a run on one curve; key names its prime(s)."""
    payload = {"curve": _curve_json(params), key: value, "reports": _reports_payload(reports)}
    return payload, reports


def _emit(payload, reports, fmt) -> int:
    if fmt == "json":
        print(json.dumps(payload, ensure_ascii=False, indent=2))
    else:
        _emit_text(payload, reports)
    return 0 if all(r.ok for r in reports) else 1


def _emit_text(payload, reports):
    if reports:
        for r in reports:
            line = f"{r.claim}: {r.status}"
            if r.witness:
                line += f" ({r.witness})"
            line += f" [{r.stats.get('millis', 0)} ms]"
            print(line)
    else:
        print(json.dumps(payload, ensure_ascii=False, indent=2))


def _curve_from_args(args):
    return validate_curve(_parse_rational(args.a), _parse_rational(args.b))


def _identity(args):
    reports = [verify_chord_incidence_symbolic(), verify_identity_symbolic()]
    return _reports_payload(reports), reports


def _cubic(args):
    params = _curve_from_args(args)
    payload = {
        "curve": _curve_json(params),
        "cubic": chord_cubic(params).as_json_table(),
        "invariants": cubic_invariants(params).as_dict(),
    }
    return payload, []


def _map(args):
    params = _curve_from_args(args)
    if args.prime is not None:
        params = reduce_params(params, args.prime)
    if args.x is None:
        if args.y is not None:
            raise CliError("--x is required with --y")
        point = CurvePoint.infinity(params)
    else:
        if args.y is None:
            raise CliError("--y is required with --x")
        x = params.coerce(_parse_rational(args.x))
        y = params.coerce(_parse_rational(args.y))
        point = CurvePoint.affine(params, x, y)
    payload = {
        "curve": _curve_json(params),
        "point": str(point),
        "line": str(chord_map(point)),
    }
    return payload, []


def _suite(args):
    check_modulus(args.prime)
    if args.random is None:
        if args.a is None or args.b is None:
            raise CliError("--a and --b are required without --random")
        if args.seed is not None:
            raise CliError("--seed needs --random")
        params = _curve_from_args(args)
        return _claim_result(params, "prime", args.prime, run_full_suite(params, args.prime))
    if args.a is not None or args.b is not None:
        raise CliError("--a and --b cannot be combined with --random")
    if args.random <= 0:
        raise CliError("--random wants a positive count")
    seed = 1 if args.seed is None else args.seed
    runs = []
    reports = []
    for params in sample_params(args.prime, args.random, seed):
        batch = run_full_suite(params, args.prime)
        reports.extend(batch)
        runs.append({"curve": _curve_json(params), "reports": _reports_payload(batch)})
    return {"prime": args.prime, "seed": seed, "runs": runs}, reports


def _degree(args):
    params = _curve_from_args(args)
    report = verify_degree_remark(params, args.prime, args.order)
    return _claim_result(params, "prime", args.prime, [report])


def _quotient(args):
    params = _curve_from_args(args)
    primes = (args.prime,) if args.prime is not None else DEFAULT_QUOTIENT_PRIMES
    return _claim_result(params, "primes", list(primes), [verify_quotient(params, primes)])


def _flexes(args):
    params = _curve_from_args(args)
    report = verify_flex_correspondence(FpContext(params, args.prime))
    return _claim_result(params, "prime", args.prime, [report])


_CURVE = {
    "--a": {"required": True, "help": "rational coefficient a"},
    "--b": {"required": True, "help": "rational coefficient b"},
}
_PRIME = {"--prime": {"type": int, "required": True}}

# Each subcommand in --help order: its handler, its help text and its
# arguments, flag to add_argument keywords; every subcommand also takes --format.
_SUBCOMMANDS = {
    "identity": (_identity, "symbolic incidence and image-cubic identities", {}),
    "cubic": (_cubic, "image cubic coefficients and invariants", _CURVE),
    "map": (
        _map,
        "chord of one curve point",
        {
            **_CURVE,
            "--x": {"help": "affine x (omit for the zero point O)"},
            "--y": {"help": "affine y"},
            "--prime": {"type": int},
        },
    ),
    "suite": (
        _suite,
        "full verification run over F_p",
        {
            "--a": {"help": "rational coefficient a"},
            "--b": {"help": "rational coefficient b"},
            **_PRIME,
            "--random": {"type": int, "metavar": "N", "help": "sample N curves"},
            "--seed": {"type": int, "help": "sampling seed (default 1)"},
        },
    ),
    "degree": (
        _degree,
        "translation chord of a given order",
        {**_CURVE, **_PRIME, "--order": {"type": int, "required": True}},
    ),
    "quotient": (
        _quotient,
        "2-isogeny identification and point counts",
        {**_CURVE, "--prime": {"type": int, "help": "single prime (default batch)"}},
    ),
    "flexes": (_flexes, "flex correspondence over F_p", {**_CURVE, **_PRIME}),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="chordcubic", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, help_text, arguments) in _SUBCOMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        for flag, kwargs in arguments.items():
            cmd.add_argument(flag, **kwargs)
        cmd.add_argument("--format", choices=("json", "text"), default="json")
        cmd.set_defaults(run=run)
    return parser


_parser = None  # built by the first main call, then reused


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    try:
        args = _parser.parse_args(argv)
        payload, reports = args.run(args)
        code = _emit(payload, reports, args.format)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout went away; send what is still buffered to
        # devnull so that the flush at interpreter exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (CliError, ValueError, ZeroDivisionError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
