"""Telemetry-layer tests: histogram buckets, percentile edge cases,
timelines, and Chrome-trace JSON schema validity."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.metrics import (
    Counter,
    LogHistogram,
    MetricsRegistry,
    Timeline,
    TraceRecorder,
)


# -- bucket boundaries -------------------------------------------------------------


def test_bucket_zero_catches_base_and_below():
    hist = LogHistogram(base=1e-6, growth=2.0)
    assert hist.bucket_index(0.0) == 0
    assert hist.bucket_index(1e-9) == 0
    assert hist.bucket_index(1e-6) == 0  # boundary is inclusive on the left bucket


def test_bucket_boundaries_are_half_open_intervals():
    hist = LogHistogram(base=1.0, growth=2.0)
    # Bucket i covers (2**(i-1), 2**i].
    assert hist.bucket_index(1.0) == 0
    assert hist.bucket_index(1.5) == 1
    assert hist.bucket_index(2.0) == 1
    assert hist.bucket_index(2.0000001) == 2
    assert hist.bucket_index(4.0) == 2
    assert hist.bucket_index(1024.0) == 10


def test_bucket_bounds_contain_their_samples():
    hist = LogHistogram(base=1e-6, growth=2 ** 0.25)
    for value in (1e-6, 3e-6, 4.7e-5, 1e-3, 0.25, 17.0):
        index = hist.bucket_index(value)
        lower, upper = hist.bucket_bounds(index)
        assert lower < value <= upper or (index == 0 and value <= upper)


def test_bucket_bounds_tile_the_axis():
    hist = LogHistogram(base=1e-6, growth=2 ** 0.25)
    previous_upper = None
    for index in range(0, 40):
        lower, upper = hist.bucket_bounds(index)
        assert upper > lower
        if previous_upper is not None:
            assert lower == pytest.approx(previous_upper)
        previous_upper = upper


def _reference_bucket_index(hist, value):
    """Oracle for the bound table: the log estimate nudged against
    ``base * growth**i`` until ``lower < value <= upper`` holds."""
    if value <= hist.base:
        return 0
    index = max(1, int(math.ceil(math.log(value / hist.base)
                                 / math.log(hist.growth))))
    while hist.base * hist.growth ** (index - 1) >= value:
        index -= 1
    while hist.base * hist.growth ** index < value:
        index += 1
    return max(index, 0)


def _boundary_samples(hist, top=200):
    """Every bound ``base * growth**i`` for i in 0..top and its float
    neighbours on both sides."""
    samples = []
    for i in range(top + 1):
        bound = hist.base * hist.growth ** i
        samples += [math.nextafter(bound, -math.inf), bound,
                    math.nextafter(bound, math.inf)]
    return samples


@pytest.mark.parametrize("base, growth", [(1e-6, 2 ** 0.25), (1.0, 2.0)])
def test_bound_table_matches_log_and_nudge(base, growth):
    top = base * growth ** 240
    samples = _boundary_samples(LogHistogram(base=base, growth=growth)) + [
        0.0, -0.0, -1e-9, -1.0, -math.inf, base / 3, top, top * 1.5, top * 1e3]
    # A fresh histogram grows its table from the one-entry start straight
    # to the sample; a shared one, fed up then down, also answers from a
    # table grown by earlier samples.
    for value in samples:
        fresh = LogHistogram(base=base, growth=growth)
        assert fresh.bucket_index(value) == _reference_bucket_index(fresh, value), value
    shared = LogHistogram(base=base, growth=growth)
    for value in samples + samples[::-1]:
        assert shared.bucket_index(value) == _reference_bucket_index(shared, value), value


def test_nan_samples_are_rejected():
    hist = LogHistogram()
    with pytest.raises(ValueError):
        hist.record(float("nan"))
    with pytest.raises(ValueError):
        hist.record_many([1e-3, float("nan")])
    assert hist.count == 0 and hist.buckets == {}


# -- percentile edge cases ---------------------------------------------------------


def test_percentile_of_empty_histogram_is_nan():
    hist = LogHistogram()
    assert math.isnan(hist.percentile(0.5))
    assert math.isnan(hist.mean)
    summary = hist.summary()
    assert summary["count"] == 0 and summary["p99"] is None


def test_percentile_empty_is_nan_at_the_bounds_too():
    hist = LogHistogram()
    # q<=0 and q>=1 short-circuit to min/max on populated histograms; on
    # an empty one they must stay NaN, not the +-inf sentinels.
    for q in (-0.5, 0.0, 1.0, 1.5):
        assert math.isnan(hist.percentile(q))


def test_percentile_out_of_range_q_clamps_to_min_max():
    hist = LogHistogram()
    for value in (0.001, 0.004, 0.009):
        hist.record(value)
    assert hist.percentile(-3.0) == pytest.approx(0.001)
    assert hist.percentile(0.0) == pytest.approx(0.001)
    assert hist.percentile(1.0) == pytest.approx(0.009)
    assert hist.percentile(7.0) == pytest.approx(0.009)


def test_percentile_single_sample_is_exact():
    hist = LogHistogram()
    hist.record(3.7e-4)
    for q in (0.0, 0.25, 0.5, 0.99, 0.999, 1.0):
        assert hist.percentile(q) == pytest.approx(3.7e-4)


def test_percentile_all_equal_samples_is_exact():
    hist = LogHistogram()
    for _ in range(1000):
        hist.record(0.002)
    for q in (0.01, 0.5, 0.99, 0.999):
        assert hist.percentile(q) == pytest.approx(0.002)


def test_percentile_bounds_and_monotonicity():
    hist = LogHistogram()
    values = [1e-5 * (1.13 ** i) for i in range(200)]
    for value in values:
        hist.record(value)
    assert hist.percentile(0.0) == pytest.approx(min(values))
    assert hist.percentile(1.0) == pytest.approx(max(values))
    quantiles = [hist.percentile(q) for q in (0.1, 0.5, 0.9, 0.99, 0.999)]
    assert quantiles == sorted(quantiles)
    # Interpolated p50 lands within one bucket-width of the true median.
    true_median = values[len(values) // 2]
    assert quantiles[1] == pytest.approx(true_median, rel=0.25)


def test_percentile_interpolation_within_bucket():
    hist = LogHistogram(base=1.0, growth=2.0)
    for _ in range(100):
        hist.record(3.0)  # bucket (2, 4]
    # All mass in one bucket: interpolation sweeps lower->upper but clamps
    # to the observed min/max, so every quantile reports exactly 3.0.
    assert hist.percentile(0.01) == pytest.approx(3.0)
    assert hist.percentile(0.99) == pytest.approx(3.0)


def test_mean_min_max_are_exact():
    hist = LogHistogram()
    for value in (0.001, 0.002, 0.009):
        hist.record(value)
    assert hist.mean == pytest.approx(0.004)
    assert hist.min == pytest.approx(0.001)
    assert hist.max == pytest.approx(0.009)
    assert hist.count == 3


# -- counters / registry ---------------------------------------------------


# -- bulk ingest -------------------------------------------------------------------


def _mixed_samples():
    """Boundary-heavy sample set: exact bucket edges, sub-base values,
    zero, and a log-spaced sweep — everything that could diverge between
    the scalar and vectorized bucket-index paths."""
    hist = LogHistogram(base=1e-6, growth=2 ** 0.25)
    samples = [0.0, 1e-9, 1e-6, 2e-6, 5e-4, 1.0]
    samples += [hist.bucket_bounds(i)[1] for i in range(0, 40, 3)]  # exact edges
    samples += [1e-6 * 1.37 ** k for k in range(60)]
    samples += [3.3e-5] * 7  # repeats collapse into one bucket
    return samples


def test_record_many_matches_one_at_a_time():
    samples = _mixed_samples()
    # Every bound to i = 200 and its neighbours, which both paths reach by
    # growing their bound tables.
    samples += _boundary_samples(LogHistogram(base=1e-6, growth=2 ** 0.25))
    one_by_one = LogHistogram(base=1e-6, growth=2 ** 0.25)
    for value in samples:
        one_by_one.record(value)
    bulk = LogHistogram(base=1e-6, growth=2 ** 0.25)
    bulk.record_many(samples)
    assert bulk.buckets == one_by_one.buckets
    assert bulk.count == one_by_one.count
    assert bulk.min == one_by_one.min
    assert bulk.max == one_by_one.max
    # Summation order differs (pairwise vs left-to-right): mean agrees to
    # float precision, and every percentile — which reads only buckets and
    # exact min/max — is identical.
    assert bulk.mean == pytest.approx(one_by_one.mean, rel=1e-12)
    for q in (0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0):
        assert bulk.percentile(q) == one_by_one.percentile(q)


def test_record_many_accepts_numpy_arrays_and_accumulates():
    hist = LogHistogram(base=1e-6, growth=2 ** 0.25)
    hist.record(5e-5)  # pre-existing scalar sample
    hist.record_many(np.asarray([1e-5, 2e-5, 5e-5, 5e-5]))
    hist.record_many(np.asarray([], dtype=float))  # empty batch is a no-op
    reference = LogHistogram(base=1e-6, growth=2 ** 0.25)
    for value in (5e-5, 1e-5, 2e-5, 5e-5, 5e-5):
        reference.record(value)
    assert hist.buckets == reference.buckets
    assert hist.count == 5
    assert hist.summary()["p50"] == reference.summary()["p50"]


def test_counter():
    counter = Counter("c")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5


def test_registry_renders_deterministic_json():
    registry = MetricsRegistry()
    registry.counter("zeta").inc(3)
    registry.counter("alpha").inc(1)
    registry.histogram("lat").record(1e-3)
    first = registry.to_json()
    # Same content built in a different insertion order serialises identically.
    other = MetricsRegistry()
    other.histogram("lat").record(1e-3)
    other.counter("alpha").inc(1)
    other.counter("zeta").inc(3)
    assert first == other.to_json()
    assert json.loads(first)["counters"] == {"alpha": 1, "zeta": 3}


# -- timelines ---------------------------------------------------------------------


def test_timeline_window_averages_integrate_steps():
    timeline = Timeline(initial=0.0)
    timeline.add(1.0, 1.0)
    timeline.add(3.0, 0.0)
    # [0,2): half busy; [2,4): half busy.
    assert timeline.window_averages(0.0, 4.0, 2) == pytest.approx([0.5, 0.5])
    # Finer windows: [0,1)=0, [1,2)=1, [2,3)=1, [3,4)=0.
    assert timeline.window_averages(0.0, 4.0, 4) == pytest.approx([0, 1, 1, 0])


def rescan_window_averages(timeline, start, end, windows):
    """Oracle for :meth:`Timeline.window_averages`: each window rescans
    every point, starting from :meth:`Timeline.value_at` its start."""
    width = (end - start) / windows
    averages = []
    for w in range(windows):
        lo, hi = start + w * width, start + (w + 1) * width
        integral = 0.0
        current = timeline.value_at(lo)
        cursor = lo
        for point_time, point_value in timeline.points:
            if point_time <= lo:
                current = point_value
                continue
            if point_time >= hi:
                break
            integral += current * (point_time - cursor)
            cursor = point_time
            current = point_value
        integral += current * (hi - cursor)
        averages.append(integral / width)
    return averages


#: Quarter-second grid: window edges and step times drawn from it coincide.
_GRID = st.sampled_from([i / 4 for i in range(-4, 25)])


@settings(max_examples=400, deadline=None)
@given(
    initial=st.floats(0.0, 1.0),
    steps=st.lists(st.tuples(st.one_of(_GRID, st.floats(0.0, 6.0)),
                             st.one_of(st.sampled_from((0.0, 0.5, 1.0)),
                                       st.floats(0.0, 1.0))),
                   max_size=20),
    start=st.one_of(_GRID, st.floats(-1.0, 6.0)),
    width=st.one_of(st.sampled_from((0.25, 0.5, 1.0)), st.floats(1e-3, 2.0)),
    windows=st.integers(1, 12),
)
def test_window_averages_match_the_rescan_oracle(initial, steps, start, width,
                                                 windows):
    # Sorted times with repeats (a repeat replaces the step); grid windows
    # put steps on their edges, and a start below 0 or a span past the last
    # step draws windows before the first point and after the last.
    timeline = Timeline(initial=initial)
    for time, value in sorted(steps, key=lambda step: step[0]):
        timeline.add(max(time, 0.0), value)
    end = start + windows * width
    assert timeline.window_averages(start, end, windows) == \
        rescan_window_averages(timeline, start, end, windows)


def test_timeline_rejects_time_travel():
    timeline = Timeline()
    timeline.add(2.0, 1.0)
    with pytest.raises(ValueError):
        timeline.add(1.0, 0.5)


def test_timeline_value_at():
    timeline = Timeline(initial=0.25)
    timeline.add(5.0, 0.75)
    assert timeline.value_at(1.0) == 0.25
    assert timeline.value_at(5.0) == 0.75
    assert timeline.value_at(9.0) == 0.75


# -- Chrome-trace schema -----------------------------------------------------------


def test_trace_recorder_emits_valid_chrome_trace():
    recorder = TraceRecorder()
    recorder.metadata("process_name", pid=0, tid=0, label="server0")
    recorder.complete("tls/dsa", "request", start_s=1e-3, duration_s=5e-6,
                      pid=0, tid=2, args={"req": 7})
    recorder.counter("qdepth", time_s=2e-3, pid=0, series={"ch0": 3})
    document = json.loads(recorder.to_json())
    assert isinstance(document["traceEvents"], list)
    assert document["displayTimeUnit"] == "ms"
    for event in document["traceEvents"]:
        assert isinstance(event["name"], str)
        assert event["ph"] in {"M", "X", "C"}
        assert isinstance(event["pid"], int)
        if event["ph"] == "X":
            assert isinstance(event["tid"], int)
            assert isinstance(event["cat"], str)
            assert isinstance(event["ts"], (int, float))
            assert isinstance(event["dur"], (int, float))
    complete = [e for e in document["traceEvents"] if e["ph"] == "X"][0]
    # Complete events: microsecond timestamps and non-negative duration.
    assert complete["ts"] == pytest.approx(1e3)
    assert complete["dur"] == pytest.approx(5.0)
    assert complete["dur"] >= 0
    assert complete["args"]["req"] == 7


def test_trace_recorder_writes_file(tmp_path):
    recorder = TraceRecorder()
    recorder.complete("x", "c", 0.0, 1e-6, 0, 0)
    path = tmp_path / "trace.json"
    recorder.write(str(path))
    assert json.loads(path.read_text())["traceEvents"]
