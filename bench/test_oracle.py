"""The known-answer oracle agrees with brute force and catches wrong outputs."""

import io
import json
from fractions import Fraction
from contextlib import redirect_stderr, redirect_stdout

import pytest

import oracle
import run
import workloads
from chordcubic import cli


def _brute_points(a, b, p):
    return [None] + [
        (x, y) for x in range(p) for y in range(p) if (y * y - x ** 3 - a * x * x - b * x) % p == 0
    ]


def _brute_order(P, a, b, p):
    n, Q = 1, P
    while Q is not None:
        Q = oracle._add(Q, P, a, b, p)
        n += 1
    return n


def _cli(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _head(workload, n):
    stream = workloads.stream(workload, 1)
    return [next(stream) for _ in range(n)]


@pytest.mark.parametrize("a,b,p", [(-3, 2, 7), (1, 1, 11), (0, -1, 13), (5, 7, 31)])
def test_point_count_and_orders_match_brute_force(a, b, p):
    points = _brute_points(a, b, p)
    assert oracle.point_count(a, b, p) == len(points)
    orders = {_brute_order(P, a, b, p) for P in points[1:]}
    for n in range(2, 9):
        assert oracle.has_point_of_order(a, b, p, n) == (n in orders)


def test_cubic_and_map_known_values():
    table = dict(oracle.cubic_table(Fraction(-3), Fraction(2)))
    assert table == {"U2V0W1": "2", "U1V2W0": "8", "U0V2W1": "6", "U0V0W3": "-1"}
    assert oracle.cubic_invariants(Fraction(-3), Fraction(2)) == {
        "e": "-64",
        "c1": "24",
        "c2": "-16",
        "muInv": "-3/4",
    }
    assert oracle.chord_line(Fraction(0), Fraction(4), (2, 4)) == "[1:0:-2]"


def _split_at_small_prime(request):
    """A suite-large-style request (a split curve) at p = 31, cheap enough to run."""
    rng = workloads.random.Random(str(request.argv))
    return workloads._prime_request("suite", *workloads._curve_mod_p(rng, 31, split=True), 31)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generated_requests_match_the_oracle(workload):
    requests = _head(workload, 12)
    if workload == "suite-large":
        for request in requests:  # too slow to run here; check the oracle's answer instead
            a, b, p = request.params["a"], request.params["b"], request.params["prime"]
            count = request.known["curve_points"]
            assert oracle.has_full_two_torsion(a, b, p)
            assert count % 4 == 0 and (count - p - 1) ** 2 <= 4 * p, request
            assert request.known["statuses"] == ["pass"] * 6
        requests = [_split_at_small_prime(r) for r in requests[:3]]
    for request in requests:
        code, stdout = _cli(request.argv)
        reason = oracle.check(request.kind, request.known, code, stdout)
        if reason is not None:
            assert workloads.is_known_defect(request, code, stdout), (request, reason)


def test_wrong_expected_value_is_caught():
    request = workloads._prime_request("suite", -3, 2, 31)
    code, stdout = _cli(request.argv)
    assert oracle.check("suite", request.known, code, stdout) is None
    tampered = dict(request.known, curve_points=request.known["curve_points"] + 2)
    assert "curve_points" in oracle.check("suite", tampered, code, stdout)
    flipped = dict(request.known, statuses=["fail"] + request.known["statuses"][1:])
    assert "verdicts" in oracle.check("suite", flipped, code, stdout)
    assert "exit code" in oracle.check("suite", dict(request.known, exit=1), code, stdout)

    request = workloads._cubic_request(workloads.random.Random(3))
    code, stdout = _cli(request.argv)
    assert oracle.check("cubic", request.known, code, stdout) is None
    table = [(k, str(int(v) + 1) if i == 0 else v) for i, (k, v) in enumerate(request.known["cubic"])]
    assert "cubic table" in oracle.check("cubic", dict(request.known, cubic=table), code, stdout)


def test_known_defect_is_a_failed_request_not_a_wrong_answer():
    kind, a, b, p, order = workloads.KNOWN_DEFECT
    request = workloads._prime_request(kind, a, b, p, order=order)
    code, stdout = _cli(request.argv)
    assert "expected 0" in oracle.check(kind, request.known, code, stdout)
    outcomes = run.Outcomes()
    outcomes.add(request, code, stdout, None)
    assert outcomes.failed == 1 and outcomes.known_defect == 1 and not outcomes.wrong


def test_known_defect_covers_every_small_image_and_nothing_else():
    for a, b, p in [(3, 4, 5), (1, 1, 7), (0, 1, 11), (2, 3, 13), (-3, 2, 31)]:  # images 2, 4, 6, 4, 16
        request = workloads._prime_request("degree", a, b, p, order=2)
        code, stdout = _cli(request.argv)
        small = request.known["image_size"] <= workloads.DEFECT_MAX_IMAGE
        assert (oracle.check("degree", request.known, code, stdout) is not None) == small
        assert workloads.is_known_defect(request, code, stdout) == small
    request = workloads._prime_request("degree", 3, 4, 5, order=3)
    code, stdout = _cli(request.argv)
    assert not workloads.is_known_defect(request, code, stdout)


def test_wrong_fail_with_exit_1_is_not_correct():
    request = workloads._prime_request("suite", -3, 2, 31)
    code, stdout = _cli(request.argv)
    payload = json.loads(stdout)
    payload["reports"][2].update(status="fail", witness="cross-check broke at (1 : 0 : 1)")
    outcomes = run.Outcomes()
    outcomes.add(request, 1, json.dumps(payload), None)
    assert outcomes.failed == 1 and outcomes.known_defect == 0 and outcomes.wrong

    outcomes = run.Outcomes()
    outcomes.add(request, None, "", "ZeroDivisionError: division by zero")
    assert outcomes.failed == 1 and outcomes.known_defect == 0 and outcomes.wrong

    # The defect's symptom on an image large enough to fix the degree is a wrong answer.
    request = workloads._prime_request("degree", -3, 2, 31, order=2)
    code, stdout = _cli(request.argv)
    payload = json.loads(stdout)
    report = payload["reports"][0]
    report.update(status="fail", witness="image interpolates at degree 2, expected 3")
    report["stats"]["image_degree"] = 2
    outcomes = run.Outcomes()
    outcomes.add(request, 1, json.dumps(payload), None)
    assert request.known["image_size"] > workloads.DEFECT_MAX_IMAGE
    assert outcomes.failed == 1 and outcomes.known_defect == 0 and outcomes.wrong


def test_exit_zero_with_a_wrong_answer_is_not_correct():
    request = workloads._prime_request("flexes", -3, 2, 31)
    code, stdout = _cli(request.argv)
    lying = workloads.Request(request.kind, request.params, request.argv)
    lying._known = dict(request.known, statuses=["skipped" if request.known["statuses"] == ["pass"] else "pass"])
    outcomes = run.Outcomes()
    outcomes.add(lying, code, stdout, None)
    assert outcomes.failed == 1 and outcomes.known_defect == 0 and outcomes.wrong


def test_streams_are_deterministic_per_seed():
    for workload in workloads.WORKLOADS:
        first = [r.argv for r in _head(workload, 20)]
        assert first == [r.argv for r in _head(workload, 20)]
        other = workloads.stream(workload, 2)
        assert first != [next(other).argv for _ in range(20)]
