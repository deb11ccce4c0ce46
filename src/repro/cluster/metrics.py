"""Cluster telemetry: counters, log-bucketed histograms,
utilisation timelines, and Chrome-trace export.

Everything here is deterministic and wall-clock-free: metrics are keyed by
simulated time only, and every export path (:meth:`MetricsRegistry.to_json`,
:meth:`TraceRecorder.to_json`) serialises with sorted keys so two runs with
the same seed emit byte-identical output.

The latency histogram uses geometric ("log") buckets: bucket ``i`` covers
``(base * growth**(i-1), base * growth**i]`` with bucket 0 catching
``(-inf, base]``.  With the default ``growth = 2**0.25`` each bucket spans
~19%, so any interpolated percentile is within ~9% of the true sample —
tight enough for p50/p99/p999 tables, cheap enough to record millions of
samples.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = ""):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add `amount` (default 1) to the running total."""
        self.value += amount


class LogHistogram:
    """Log-bucketed histogram with interpolated percentiles.

    Buckets are geometric: index 0 holds samples ``<= base``; index ``i``
    (``i >= 1``) holds samples in ``(base * growth**(i-1), base * growth**i]``.
    Exact min/max/sum/count are tracked alongside, and percentile results
    are clamped to ``[min, max]`` so degenerate distributions (one sample,
    all-equal samples) report exactly.

    Bucket lookup bisects one table of upper bounds, the python floats
    ``base * growth**i``, grown on demand to cover the largest sample seen.
    NaN samples raise :class:`ValueError`.
    """

    def __init__(self, name: str = "", base: float = 1e-6, growth: float = 2 ** 0.25):
        if base <= 0 or growth <= 1.0:
            raise ValueError("base must be > 0 and growth > 1")
        self.name = name
        self.base = base
        self.growth = growth
        self._log_growth = math.log(growth)
        self._bounds = [base]  # upper bounds base * growth**i, see _cover
        self._bounds_array = None  # numpy copy of _bounds for record_many
        self.buckets = {}  # index -> count
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    # -- recording -------------------------------------------------------------

    def _cover(self, top: float) -> None:
        """Grow the bound table until its last bound is ``>= top``."""
        # Float log can land one off right at a boundary; two spare bounds
        # past the estimate absorb that.
        edge = int(math.ceil(math.log(top / self.base) / self._log_growth)) + 2
        self._bounds.extend(self.base * self.growth ** i
                            for i in range(len(self._bounds), edge + 1))
        self._bounds_array = None

    def bucket_index(self, value: float) -> int:
        """The bucket holding `value`, exact at boundaries."""
        if value != value:
            raise ValueError("cannot bucket a NaN sample")
        bounds = self._bounds
        if value > bounds[-1]:
            self._cover(value)
        return bisect_left(bounds, value)

    def bucket_bounds(self, index: int) -> tuple:
        """(lower, upper] bounds of bucket `index` (lower 0.0 for bucket 0)."""
        if index <= 0:
            return (0.0, self.base)
        return (self.base * self.growth ** (index - 1), self.base * self.growth ** index)

    def record(self, value: float) -> None:
        """Add one sample, updating buckets and exact count/sum/min/max."""
        # bucket_index, inlined: the fleet records every completion.
        if value != value:
            raise ValueError("cannot bucket a NaN sample")
        bounds = self._bounds
        if value > bounds[-1]:
            self._cover(value)  # extends `bounds` in place
        index = bisect_left(bounds, value)
        buckets = self.buckets
        buckets[index] = buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def record_many(self, values) -> None:
        """Bulk-ingest an iterable (or numpy array) of samples.

        Bucket assignment, count, min, and max are exactly what `len(values)`
        individual :meth:`record` calls would produce; only the float ``sum``
        may differ in the last bits (numpy sums pairwise, :meth:`record`
        left-to-right), which percentiles never read.  This is the vector
        fleet tier's ingest path: one call per epoch cohort instead of one
        per request.
        """
        samples = np.asarray(values, dtype=np.float64)
        if samples.size == 0:
            return
        # Bucket i covers (bound[i-1], bound[i]]; searchsorted against
        # boundaries built with the *scalar* path's own arithmetic
        # (python-float `base * growth ** i`) keeps edge samples in exactly
        # the bucket :meth:`record` would pick — numpy's pow rounds
        # differently in the last bit, so the bounds must not come from it.
        top = float(samples.max())
        if top != top:
            raise ValueError("cannot bucket a NaN sample")
        if top > self._bounds[-1]:
            self._cover(top)
        if self._bounds_array is None:
            self._bounds_array = np.asarray(self._bounds)
        indices = np.searchsorted(self._bounds_array, samples, side="left")
        counts = np.bincount(indices)
        for index in np.nonzero(counts)[0].tolist():
            self.buckets[index] = self.buckets.get(index, 0) + int(counts[index])
        self.count += int(samples.size)
        self.total += float(samples.sum())
        low = float(samples.min())
        if low < self.min:
            self.min = low
        if top > self.max:
            self.max = top

    # -- queries ---------------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def percentile(self, q: float) -> float:
        """The `q`-quantile (q in [0, 1]), interpolated within its bucket.

        Empty histogram -> NaN.  q <= 0 -> exact min; q >= 1 -> exact max.
        """
        if self.count == 0:
            return math.nan
        if q <= 0.0:
            return self.min
        if q >= 1.0:
            return self.max
        target = q * self.count
        cumulative = 0
        for index in sorted(self.buckets):
            in_bucket = self.buckets[index]
            cumulative += in_bucket
            if cumulative >= target:
                lower, upper = self.bucket_bounds(index)
                lower = max(lower, self.min)
                upper = min(upper, self.max)
                if upper <= lower:
                    return lower
                fraction = (target - (cumulative - in_bucket)) / in_bucket
                return lower + (upper - lower) * fraction
        return self.max  # unreachable; guards float accumulation drift

    def summary(self) -> dict:
        """p50/p90/p99/p999 plus exact count/mean/min/max (JSON-ready)."""
        empty = self.count == 0
        return {
            "count": self.count,
            "mean": None if empty else self.mean,
            "min": None if empty else self.min,
            "max": None if empty else self.max,
            "p50": None if empty else self.percentile(0.50),
            "p90": None if empty else self.percentile(0.90),
            "p99": None if empty else self.percentile(0.99),
            "p999": None if empty else self.percentile(0.999),
        }


class Timeline:
    """A piecewise-constant signal: step changes at simulated times.

    Used for per-resource utilisation/queue-depth traces; window averages
    integrate the step function exactly rather than sampling it.
    """

    def __init__(self, name: str = "", initial: float = 0.0):
        self.name = name
        self.points = [(0.0, initial)]  # (time, value), time non-decreasing

    def add(self, time: float, value: float) -> None:
        """Step the signal to `value` at `time` (times must not go backwards)."""
        if time < self.points[-1][0]:
            raise ValueError("timeline times must be non-decreasing")
        if time == self.points[-1][0]:
            self.points[-1] = (time, value)
        else:
            self.points.append((time, value))

    def value_at(self, time: float) -> float:
        """The signal's value at `time` (last step at or before it)."""
        value = self.points[0][1]
        for point_time, point_value in self.points:
            if point_time > time:
                break
            value = point_value
        return value

    def window_averages(self, start: float, end: float, windows: int) -> list:
        """Exact time-weighted mean of the signal over each of `windows`
        equal sub-intervals of [start, end).

        One sweep over the points.  Each window starts from the value at
        its start and adds the same products in the same order as a rescan
        of every point per window would, so the result is identical to
        that rescan (its oracle in ``tests/cluster/test_metrics.py``).
        """
        if end <= start or windows < 1:
            raise ValueError("need end > start and windows >= 1")
        width = (end - start) / windows
        points = self.points
        count = len(points)
        index = 0  # the first point not yet folded into `current`
        current = points[0][1]
        averages = []
        for w in range(windows):
            lo, hi = start + w * width, start + (w + 1) * width
            while index < count and points[index][0] <= lo:
                current = points[index][1]
                index += 1
            integral = 0.0
            cursor = lo
            while index < count:
                point_time, point_value = points[index]
                if point_time >= hi:
                    break
                integral += current * (point_time - cursor)
                cursor = point_time
                current = point_value
                index += 1
            integral += current * (hi - cursor)
            averages.append(integral / width)
        return averages


class TraceRecorder:
    """Chrome-trace (``about:tracing`` / Perfetto) event collector.

    Emits the Trace Event Format's JSON-object flavour: complete ("X")
    events with microsecond timestamps, counter ("C") events, and metadata
    ("M") thread/process names.
    """

    def __init__(self):
        self.events = []

    def metadata(self, name: str, pid: int, tid: int, label: str) -> None:
        """Emit an \"M\" event naming a process/thread row in the viewer."""
        self.events.append({
            "name": name, "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": label},
        })

    def complete(self, name: str, category: str, start_s: float, duration_s: float,
                 pid: int, tid: int, args: dict = None) -> None:
        """Emit a complete (\"X\") span of `duration_s` starting at `start_s`."""
        event = {
            "name": name, "cat": category, "ph": "X",
            "ts": start_s * 1e6, "dur": duration_s * 1e6,
            "pid": pid, "tid": tid,
        }
        if args:
            event["args"] = args
        self.events.append(event)

    def counter(self, name: str, time_s: float, pid: int, series: dict) -> None:
        """Emit a counter (\"C\") sample: one stacked value per series key."""
        self.events.append({
            "name": name, "ph": "C", "ts": time_s * 1e6, "pid": pid,
            "args": series,
        })

    def to_json(self) -> str:
        """The trace as a deterministic (sorted-keys) JSON document string."""
        document = {"traceEvents": self.events, "displayTimeUnit": "ms"}
        return json.dumps(document, sort_keys=True)

    def write(self, path: str) -> None:
        """Write the trace JSON to `path` (load via chrome://tracing/Perfetto)."""
        with open(path, "w") as handle:
            handle.write(self.to_json())


@dataclass
class MetricsRegistry:
    """Named instruments plus deterministic JSON/text rendering."""

    counters: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)
    timelines: dict = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        """Get or create the counter called `name`."""
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def histogram(self, name: str, base: float = 1e-6,
                  growth: float = 2 ** 0.25) -> LogHistogram:
        """Get or create the histogram called `name` (params used on create)."""
        if name not in self.histograms:
            self.histograms[name] = LogHistogram(name, base, growth)
        return self.histograms[name]

    def timeline(self, name: str, initial: float = 0.0) -> Timeline:
        """Get or create the timeline called `name`."""
        if name not in self.timelines:
            self.timelines[name] = Timeline(name, initial)
        return self.timelines[name]

    def to_dict(self) -> dict:
        """Sorted snapshot of every instrument (histograms as summaries)."""
        return {
            "counters": {name: c.value for name, c in sorted(self.counters.items())},
            "histograms": {name: h.summary() for name, h in sorted(self.histograms.items())},
        }

    def to_json(self) -> str:
        """Deterministic JSON rendering of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), sort_keys=True)
