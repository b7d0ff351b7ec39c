"""Self-checks for the benchmark's own arithmetic: self time, tail rule, caps."""

import sys
import time
import types

import pytest

from caps import run_capped
from spans import MeasurementError, Site, Span, Tracer, self_times
from summary import percentile, tail_percentile


def test_self_time_subtracts_children_on_a_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping: union
    # [1, 6] = 5) and c [9, 12] (clipped to [9, 10] = 1); a has child d [2, 3].
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("d", 2.0, 3.0, 1, 0),
        Span("b", 3.0, 6.0, 0, 0),
        Span("c", 9.0, 12.0, 0, 0),
    ]
    assert self_times(spans) == [4.0, 2.0, 1.0, 3.0, 3.0]


def test_self_time_of_nested_wrapped_calls():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    mod = types.ModuleType("perfbench_fake_layers")
    mod.inner = lambda: None
    mod.outer = lambda: (mod.inner(), mod.inner())
    sys.modules[mod.__name__] = mod
    try:
        tracer.install([Site(mod.__name__, "outer", "outer", sample=True), Site(mod.__name__, "inner", "inner")])
        mod.outer()
    finally:
        tracer.restore()
        del sys.modules[mod.__name__]
    # outer [0, 5], inner [1, 2] and [3, 4]
    assert [(s.name, s.start, s.end, s.parent, s.sample) for s in tracer.spans] == [
        ("outer", 0.0, 5.0, -1, 0),
        ("inner", 1.0, 2.0, 0, 0),
        ("inner", 3.0, 4.0, 0, 0),
    ]
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]
    assert all(s.ok for s in tracer.spans)


def test_missing_attribute_fails_loudly_and_restores():
    mod = types.ModuleType("perfbench_fake_missing")
    original = lambda: 1  # noqa: E731
    mod.present = original
    sys.modules[mod.__name__] = mod
    try:
        tracer = Tracer()
        with pytest.raises(MeasurementError, match="absent"):
            tracer.install([Site(mod.__name__, "present", "p"), Site(mod.__name__, "absent", "a")])
        with pytest.raises(MeasurementError, match="Gone.method"):
            tracer.install([Site(mod.__name__, "Gone.method", "g")])
        assert mod.present is original
    finally:
        del sys.modules[mod.__name__]


@pytest.mark.parametrize(
    "count, expected",
    [(1, 50.0), (19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    q = tail_percentile(count)
    assert q == expected
    assert count * (1 - q / 100) >= 10 - 1e-9 or q == 50.0


def test_percentile_interpolates_like_numpy():
    xs = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(xs, 50) == 3.0
    assert percentile(xs, 90) == pytest.approx(4.6)
    assert percentile([7.0], 99) == 7.0


def test_capped_case_times_out_and_closes_its_spans():
    tracer = Tracer()
    mod = types.ModuleType("perfbench_fake_spin")

    def spin():
        while True:
            pass

    mod.spin = spin
    sys.modules[mod.__name__] = mod
    try:
        tracer.install([Site(mod.__name__, "spin", "spin")])
        start = time.perf_counter()
        status, value, secs = run_capped(mod.spin, 0.05)
        tracer.unwind(0)
    finally:
        tracer.restore()
        del sys.modules[mod.__name__]
    assert status == "timeout" and value is None
    assert 0.05 <= secs < 2.0 and time.perf_counter() - start < 2.0
    (span,) = tracer.spans
    assert span.end is not None and not span.ok and tracer.depth == 0


def test_capped_case_that_finishes_returns_its_value():
    status, value, secs = run_capped(lambda: 42, 5.0)
    assert (status, value) == ("ok", 42) and secs < 5.0
    # the alarm is cleared: a later long sleep is not interrupted
    time.sleep(0.01)
