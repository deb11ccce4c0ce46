"""Batched-epoch primitive tests: scans, stations, planners, integrals.

Every primitive in ``repro.cluster.epoch`` runs on numpy columns; the
tests here check it against brute-force sequential references.
"""

import heapq
import math

import numpy as np
import pytest

from repro.cluster import epoch as epoch_module
from repro.cluster.epoch import (
    Station,
    fifo_scan,
    interleave_targets,
    overlap_sum,
    water_fill,
    window_overlaps,
)


def _col(values):
    return np.asarray(values, dtype=np.float64)


# -- fifo_scan ---------------------------------------------------------------------


def _lindley(arrive, service, carry):
    start, depart, prev = [], [], carry
    for a, s in zip(arrive, service):
        begin = max(a, prev)
        prev = begin + s
        start.append(begin)
        depart.append(prev)
    return start, depart, prev


def test_fifo_scan_matches_sequential_recursion():
    arrive = [0.0, 0.1, 0.15, 0.9, 0.91]
    service = [0.2, 0.05, 0.3, 0.01, 0.5]
    want_start, want_depart, want_carry = _lindley(arrive, service, 0.05)
    start, depart, carry = fifo_scan(_col(arrive), _col(service), 0.05)
    assert start.tolist() == pytest.approx(want_start)
    assert depart.tolist() == pytest.approx(want_depart)
    assert carry == pytest.approx(want_carry)


def test_fifo_scan_empty_cohort():
    empty = _col([])
    start, depart, carry = fifo_scan(empty, empty, 1.5)
    assert len(start) == 0 and len(depart) == 0
    assert carry == 1.5


# -- Station: chain decomposition vs first-free dispatch ----------------------------


def _first_free(arrive, service, carries):
    """Brute-force event-kernel dispatch: head of FIFO takes first token."""
    avail = list(carries)
    heapq.heapify(avail)
    start, depart = [], []
    for a, s in zip(arrive, service):
        begin = max(a, avail[0])
        heapq.heapreplace(avail, begin + s)
        start.append(begin)
        depart.append(begin + s)
    return start, depart


def test_station_uniform_service_chains_are_first_free():
    """With uniform service, round-robin chains == first-free dispatch."""
    arrive = [0.0, 0.0, 0.01, 0.02, 0.02, 0.5, 0.5, 0.5]
    service = [0.1] * len(arrive)
    station = Station(3)
    start, depart, shed = station.drain(_col(arrive), _col(service))
    want_start, want_depart = _first_free(arrive, service, [0.0] * 3)
    assert shed is None
    assert start.tolist() == pytest.approx(want_start)
    assert depart.tolist() == pytest.approx(want_depart)


def test_station_chain_carries_persist_across_cohorts():
    """Splitting one uniform stream into two drains must not change it."""
    arrive = [0.01 * j for j in range(10)]
    service = [0.07] * 10
    whole = Station(2)
    d_whole = whole.drain(_col(arrive), _col(service))[1]
    split = Station(2)
    d_a = split.drain(_col(arrive[:6]), _col(service[:6]))[1]
    d_b = split.drain(_col(arrive[6:]), _col(service[6:]))[1]
    assert d_whole.tolist() == pytest.approx(d_a.tolist() + d_b.tolist())


def test_station_mixed_service_uses_exact_first_free():
    """Heterogeneous cohorts switch to the heap path — exact, not chains."""
    arrive = [0.0, 0.0, 0.0, 0.0, 0.2]
    service = [1.0, 0.01, 0.01, 0.01, 0.01]
    station = Station(2)
    start, depart, _ = station.drain(_col(arrive), _col(service))
    want_start, want_depart = _first_free(arrive, service, [0.0] * 2)
    assert start.tolist() == pytest.approx(want_start)
    assert depart.tolist() == pytest.approx(want_depart)
    # ...and the station stays on the exact path for later uniform cohorts.
    start2, depart2, _ = station.drain(_col([2.0, 2.0]), _col([0.5, 0.5]))
    assert depart2.tolist() == pytest.approx([2.5, 2.5])


def test_station_capacity_gt_one_chain_scan_is_first_free():
    """The padded 2-D chain scan must equal brute-force first-free dispatch."""
    arrive = [0.003 * j for j in range(23)]  # 23 jobs: pads a 4-chain scan
    service = [0.02] * 23
    station = Station(4)
    start, depart, _ = station.drain(_col(arrive), _col(service))
    want_start, want_depart = _first_free(arrive, service, [0.0] * 4)
    assert start.tolist() == pytest.approx(want_start)
    assert depart.tolist() == pytest.approx(want_depart)
    # Each chain's carry is the departure of the last job it served.
    assert sorted(station.carries) == pytest.approx(sorted(want_depart[-4:]))


def test_station_deadline_shedding_zero_service():
    """An expired job holds its slot for zero seconds and departs at grant."""
    arrive = _col([0.0, 0.0, 0.0])
    service = _col([1.0, 1.0, 1.0])
    deadline = _col([10.0, 0.5, 10.0])  # job 1 expires while queued
    station = Station(1)
    start, depart, shed = station.drain(arrive, service, deadline)
    assert shed.tolist() == [False, True, False]
    assert start.tolist() == pytest.approx([0.0, 1.0, 1.0])
    assert depart.tolist() == pytest.approx([1.0, 1.0, 2.0])


def test_station_shed_fixpoint_matches_sequential():
    """The scan/re-flag fixpoint equals the exact per-job recursion."""
    arrive = [0.01 * j for j in range(40)]
    service = [0.05] * 40
    deadline = [a + 0.12 for a in arrive]
    station = Station(1)
    start, depart, shed = station.drain(
        _col(arrive), _col(service), _col(deadline))
    prev, want_shed, want_depart = 0.0, [], []
    for a, s, d in zip(arrive, service, deadline):
        begin = max(a, prev)
        expired = begin >= d
        prev = begin if expired else begin + s
        want_shed.append(expired)
        want_depart.append(prev)
    assert any(want_shed)  # the config must actually shed something
    assert shed.tolist() == want_shed
    assert depart.tolist() == pytest.approx(want_depart)


def test_station_shed_fallback_is_the_exact_recursion(monkeypatch):
    """Past MAX_SHED_PASSES the first-free scan takes over: exactly the
    per-job recursion, float for float, carry included."""
    arrive = [0.01 * j for j in range(40)]
    service = [0.05] * 40
    deadline = [a + 0.12 for a in arrive]
    monkeypatch.setattr(epoch_module, "MAX_SHED_PASSES", 0)
    station = Station(1)
    start, depart, shed = station.drain(
        _col(arrive), _col(service), _col(deadline))
    prev, want_start, want_shed, want_depart = 0.0, [], [], []
    for a, s, d in zip(arrive, service, deadline):
        begin = max(a, prev)
        expired = begin >= d
        prev = begin if expired else begin + s
        want_start.append(begin)
        want_shed.append(expired)
        want_depart.append(prev)
    assert any(want_shed)
    assert start.tolist() == want_start
    assert shed.tolist() == want_shed
    assert depart.tolist() == want_depart
    assert station.carries == [prev]


def test_station_rejects_zero_capacity():
    with pytest.raises(ValueError):
        Station(0)


# -- busy-time integrals -----------------------------------------------------------


def test_overlap_sum_clips_to_window():
    start = _col([0.0, 2.0, 9.5])
    depart = _col([1.5, 3.0, 12.0])
    # window [1, 10): 0.5 from the first, 1.0 from the second, 0.5 tail
    assert overlap_sum(start, depart, 1.0, 10.0) == pytest.approx(2.0)
    assert overlap_sum(_col([]), _col([]), 0.0, 1.0) == 0.0


def test_window_overlaps_partition_the_total():
    start = _col([0.1, 0.4, 0.85])
    depart = _col([0.3, 0.6, 1.4])
    per = window_overlaps(start, depart, 0.0, 1.0, 4)
    assert len(per) == 4
    assert sum(per) == pytest.approx(overlap_sum(start, depart, 0.0, 1.0))
    with pytest.raises(ValueError):
        window_overlaps(start, depart, 0.0, 1.0, 0)


# -- cohort planners ---------------------------------------------------------------


def test_water_fill_levels_backlogs():
    counts = water_fill([0.0, 4.0], 6, 1.0)
    assert counts == [5, 1]  # projected levels meet at 5.0
    assert water_fill([1.0, 1.0, 1.0], 0, 1.0) == [0, 0, 0]


def test_water_fill_skips_down_targets():
    counts = water_fill([0.0, math.inf, 0.0], 4, 1.0)
    assert counts[1] == 0 and sum(counts) == 4
    with pytest.raises(ValueError):
        water_fill([math.inf], 1, 1.0)


def test_water_fill_is_deterministic():
    backlogs = [0.3, 0.1, 0.1, 0.7]
    assert water_fill(backlogs, 11, 0.05) == water_fill(backlogs, 11, 0.05)


def test_interleave_targets_spreads_assignments():
    out = interleave_targets([2, 1]).tolist()
    assert sorted(out) == [0, 0, 1]
    assert out != [0, 0, 1]  # interleaved, not contiguous runs
    assert len(interleave_targets([0, 0])) == 0
