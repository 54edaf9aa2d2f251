"""Self-time arithmetic and the tracer's patching of chordcubic."""

import io
import time
from contextlib import redirect_stdout

import pytest

import spans
import speed
from chordcubic import cli, curve, plane, verify


def test_self_time_subtracts_the_union_of_children():
    got = spans.self_times(
        [
            (0, -1, 0.0, 10.0),
            (1, 0, 1.0, 3.0),
            (2, 0, 2.0, 5.0),  # overlaps its sibling: [1, 5] is covered once
            (3, 1, 1.5, 2.5),  # a grandchild does not count against the root
            (4, 0, 9.0, 12.0),  # clipped to the parent's end
        ]
    )
    assert got[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert got[1] == pytest.approx(2.0 - 1.0)
    assert got[3] == pytest.approx(1.0)
    assert got[4] == pytest.approx(3.0)


def test_self_time_of_sequential_children():
    got = spans.self_times([(7, None, 0.0, 4.0), (8, 7, 0.5, 1.0), (9, 7, 2.0, 3.5)])
    assert got[7] == pytest.approx(2.0)


def _traced(argv):
    tracer = spans.Tracer()
    tracer.install()
    try:
        with redirect_stdout(io.StringIO()) as out:
            code = cli.main(argv)
    finally:
        tracer.uninstall()
    return tracer, code, out.getvalue()


def test_tracer_records_nested_spans_and_restores_the_package():
    originals = (cli.main, curve.group_add, verify.group_add, curve.PrimeFieldScalar.__init__)
    argv = ["suite", "--a=-3", "--b=2", "--prime=31"]
    tracer, code, out = _traced(argv)
    assert (cli.main, curve.group_add, verify.group_add, curve.PrimeFieldScalar.__init__) == originals

    with redirect_stdout(io.StringIO()) as plain:
        assert cli.main(argv) == code
    assert plain.getvalue() == out

    table = tracer.summary()
    assert table["cli.main"]["calls"] == 1
    names = {s[0]: s[3] for s in tracer.spans}
    parents = {names.get(s[1]) for s in tracer.spans if s[3] == "curve.group_add"}
    assert "curve.scalar_mul" in parents  # internal calls inside curve are seen
    for row in table.values():
        assert row["self_s"] <= row["total_s"] + 1e-9
    assert tracer.counters["plane.scan_points"] == 4 * (31 * 31 + 31 + 1)
    assert 0 < tracer.counters["plane.scan_zeros"] < tracer.counters["plane.scan_points"]


def test_counters_repeat_exactly():
    argv = ["degree", "--a=-3", "--b=2", "--prime=31", "--order=4"]
    first, _, _ = _traced(argv)
    second, _, _ = _traced(argv)
    assert first.counters == second.counters
    assert {k: v["calls"] for k, v in first.summary().items()} == {
        k: v["calls"] for k, v in second.summary().items()
    }
    assert first.adds_per_point_order() == second.adds_per_point_order() > 0


def _adds_below_point_order(tracer):
    """group_add spans with a point_order ancestor, found by walking the parent ids."""
    by_id = {s[0]: s for s in tracer.spans}

    def below_order(span):
        while span[1] >= 0:
            span = by_id[span[1]]
            if span[3] == "curve.point_order":
                return True
        return False

    return sum(1 for s in tracer.spans if s[3] == "curve.group_add" and below_order(s))


def test_adds_are_counted_at_any_depth_below_point_order(monkeypatch):
    def order_by_scalar_mul(p):
        n = 1
        while not curve.scalar_mul(n, p).is_infinity:
            n += 1
        return n

    for module in (curve, verify):
        monkeypatch.setattr(module, "point_order", order_by_scalar_mul)
    argv = ["degree", "--a=-3", "--b=2", "--prime=31", "--order=4"]
    tracer, _, _ = _traced(argv)
    names = {s[0]: s[3] for s in tracer.spans}
    parents = {names.get(s[1]) for s in tracer.spans if s[3] == "curve.group_add"}
    assert "curve.scalar_mul" in parents and "curve.point_order" not in parents
    adds = tracer.counters["curve.point_order.adds"]
    assert adds == _adds_below_point_order(tracer) > 0
    calls = tracer.summary()["curve.point_order"]["calls"]
    assert tracer.adds_per_point_order() == adds / calls

    monkeypatch.undo()
    direct, _, _ = _traced(argv)
    assert direct.counters["curve.point_order.adds"] == _adds_below_point_order(direct) > 0


def test_tracer_refuses_to_install_without_the_zero_scan(monkeypatch):
    monkeypatch.delattr(plane, "_zero_points_over_Fp")
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError, match="scan_zeros"):
        tracer.install()
    assert not tracer._patches


def test_speed_scale_uses_calibrations_near_the_interval():
    w = speed.WINDOW_S
    probe = speed.SpeedProbe()
    probe.times = [0.0, 5.0, 5.0 + w, 10.0]
    probe.samples = [1.0, 2.0, 4.0, 8.0]
    assert probe.scale(5.0 + w / 4, 5.0 + w / 2) == pytest.approx(speed.REFERENCE_S / 3.0)
    assert probe.scale(0.0, 0.0) == pytest.approx(speed.REFERENCE_S / 1.0)


def test_ticking_calibrates_inside_a_long_call_and_accounts_for_it():
    probe = speed.SpeedProbe()
    started = time.perf_counter()
    with probe.ticking():
        while time.perf_counter() - started < 3.5 * speed.TICK_S:
            pass
    elapsed = time.perf_counter() - started
    assert len(probe.samples) == len(probe.times) >= 2
    assert all(started <= t <= started + elapsed for t in probe.times)
    assert 0 < probe.paused < elapsed
