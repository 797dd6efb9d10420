"""Tests of the benchmark's own helpers.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_helpers.py -q
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from calib import Calibrator, percentile, slope, to_reference  # noqa: E402
from spans import Span, SpanSet  # noqa: E402
from workloads import Op, StalePages, error_type  # noqa: E402


def _scripted(values):
    """A fake kernel returning ``values`` in turn."""
    it = iter(values)
    return lambda: next(it)


def test_reference_equals_wall_at_nominal_speed():
    cal = Calibrator(nominal_ms=2.0, window=3, kernel=_scripted([2.0, 2.0, 2.0]))
    for _ in range(3):
        cal.sample()
    assert cal.reference(0.5) == pytest.approx(0.5)


def test_slow_machine_is_scaled_back_to_reference():
    # the kernel took twice the nominal time, so the machine ran at half
    # speed and an op's wall time is worth half as many reference seconds
    cal = Calibrator(nominal_ms=2.0, window=3, kernel=_scripted([4.0, 4.0, 4.0]))
    for _ in range(3):
        cal.sample()
    assert cal.reference(1.0) == pytest.approx(0.5)
    assert cal.factor() == pytest.approx(0.5)


def test_rolling_median_ignores_one_spike_and_forgets_old_samples():
    samples = [2.0, 2.0, 50.0, 4.0, 4.0, 4.0]
    cal = Calibrator(nominal_ms=2.0, window=3, kernel=_scripted(samples))
    for _ in range(3):
        cal.sample()
    assert cal.reference(1.0) == pytest.approx(1.0)  # median of 2, 2, 50
    for _ in range(3):
        cal.sample()
    assert cal.reference(1.0) == pytest.approx(0.5)  # window now 4, 4, 4
    assert cal.median_ms() == pytest.approx(4.0)  # over every sample


def test_to_reference_needs_samples():
    with pytest.raises(ValueError):
        to_reference(1.0, [], 2.0)


def test_percentile_nearest_rank_without_failures():
    values = list(range(1, 101))
    assert percentile(values, [False] * 100, 50) == 50
    assert percentile(values, [False] * 100, 95) == 95
    assert percentile(values, [False] * 100, 100) == 100


def test_failed_ops_rank_above_every_success():
    # 10 fast failures among 90 successes: the p95 lands on a failure
    # although every failure was quicker than every success
    values = [100.0 + i for i in range(90)] + [1.0 + i for i in range(10)]
    failed = [False] * 90 + [True] * 10
    assert percentile(values, failed, 50) == 149.0
    assert percentile(values, failed, 90) == 189.0  # the slowest success
    assert percentile(values, failed, 95) == 5.0  # the 5th failure in order
    assert percentile(values, failed, 100) == 10.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], [], 50)
    with pytest.raises(ValueError):
        percentile([1.0], [False, True], 50)
    with pytest.raises(ValueError):
        percentile([1.0], [False], 0)


def test_slope_fits_a_line_exactly():
    xs = [1.0, 1.1, 1.2, 1.3]
    ys = [3.0 + 20.0 * x for x in xs]
    assert slope(xs, ys) == pytest.approx(20.0)


def test_slope_of_noise_around_a_line():
    xs = [1.0 + i / 100 for i in range(101)]
    noise = itertools.cycle([0.5, -0.5])
    ys = [7.0 * x + next(noise) for x in xs]
    assert slope(xs, ys) == pytest.approx(7.0, abs=0.5)


def test_slope_without_spread_is_zero():
    assert slope([1.0, 1.0], [2.0, 5.0]) == 0.0
    assert slope([1.0], [2.0]) == 0.0


def _span(sid, parent, name, start, end, pid=1):
    span = Span(sid, parent, name, start, pid, "p")
    span.end = end
    return span


def test_self_time_subtracts_direct_children_only():
    spans = SpanSet([
        _span(1, None, "api.append", 0.0, 10.0),
        _span(2, 1, "mine", 1.0, 4.0),
        _span(3, 1, "map", 4.0, 6.0),
        _span(4, 3, "store.read", 4.5, 5.0),
    ])
    assert spans.self_seconds("api.append") == pytest.approx(5.0)
    assert spans.total("map") == pytest.approx(2.0)


def test_nested_spans_of_one_name_count_once():
    spans = SpanSet([
        _span(1, None, "store.write", 0.0, 3.0),
        _span(2, 1, "store.write", 1.0, 2.0),
        _span(1, None, "store.write", 0.0, 1.0, pid=2),
    ])
    assert spans.total("store.write") == pytest.approx(4.0)


def test_failed_op_latency_runs_until_the_page_catches_up():
    ops = [Op(0.1, 0.1, "IndexError", False), Op(0.2, 0.2, "IndexError", False)]
    stale = StalePages()
    stale.failed("c1", ops[0], began=10.0, factor=2.0)
    stale.failed("c2", ops[1], began=10.0, factor=1.0)
    stale.caught_up("c1", at=10.5)  # c1's next patch succeeded
    stale.close(at=12.0)  # c2 never caught up before the end
    assert (ops[0].wall_s, ops[0].ref_s) == (pytest.approx(0.5), pytest.approx(1.0))
    assert (ops[1].wall_s, ops[1].ref_s) == (pytest.approx(2.0), pytest.approx(2.0))


def test_error_type_is_the_exception_name():
    assert error_type("IndexError: tuple index out of range") == "IndexError"
    assert error_type("CompileError: cannot render") == "CompileError"
