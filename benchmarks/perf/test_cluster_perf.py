"""Perf-marked checks of the cluster rows: they run what they claim to.

Excluded from tier-1 (``testpaths = ["tests"]`` plus the ``perf`` marker);
run explicitly with::

    PYTHONPATH=src python -m pytest -m perf benchmarks/perf -q

Speed is judged by ``check_regression.py`` against the parent commit;
these tests check that the timed operations do the work they are named
for, and that the tier crosscheck holds at the gate's bound.
"""

import pytest

import check_regression
import cluster_bench

pytestmark = pytest.mark.perf


def test_kernel_rows_process_their_events():
    assert cluster_bench.kernel_timeout()() == cluster_bench.KERNEL_EVENTS
    # two events per sleep, and the spawn is one
    assert cluster_bench.kernel_process()() == cluster_bench.KERNEL_EVENTS + 1


def test_scenarios_complete_and_count_events():
    for build in (cluster_bench.scenario_closed_tls,
                  cluster_bench.scenario_open_spill):
        report = build()()
        assert report.completed > 0
        assert report.events_processed > report.completed  # events/request


def test_scenario_event_counts_are_deterministic():
    """The DES is seeded: a re-run processes exactly the same events."""
    op = cluster_bench.scenario_closed_tls()
    first, second = op(), op()
    assert first.events_processed == second.events_processed
    assert first.completed == second.completed


def test_fleet_vector_row_serves_the_spill_scenario():
    report = cluster_bench.fleet_vector()()
    assert report.completed > 0
    assert report.spilled > 0  # the scenario must exercise spilling


def test_tier_crosscheck_holds_at_the_gate_bound():
    row = next(r for r in check_regression.ROWS if r.name == "tier_crosscheck")
    passed, detail = row.check(row.bound)
    assert passed, detail
