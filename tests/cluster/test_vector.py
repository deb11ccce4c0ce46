"""Vector fleet tier: smoke runs, crosscheck, shedding, faults, CLI wiring.

These are tier-1 tests, so every scenario here is tiny (a few hundred
requests); the fleet-scale speedup claims live in
``benchmarks/perf/cluster_bench.py`` behind the ``perf`` marker.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.__main__ import main as cli_main
from repro.cluster import (ClusterScenario, FaultWindow, crosscheck_tiers,
                           run_scenario)
from repro.cluster.vector import _Backlog, run_vector_scenario


def _closed_scenario(**overrides):
    base = dict(servers=2, channels=2, threads=4, connections=24, ulp="tls",
                message_bytes=4096, scheduler="least-loaded",
                duration_s=0.003, warmup_s=0.0005, seed=3, tier="vector")
    base.update(overrides)
    return ClusterScenario(**base)


def _open_scenario(**overrides):
    base = dict(servers=2, channels=2, threads=4, ulp="tls",
                message_bytes=4096, mode="open", arrival="poisson",
                rate_rps=60e3, scheduler="static",
                duration_s=0.004, warmup_s=0.0005, seed=5, tier="vector")
    base.update(overrides)
    return ClusterScenario(**base)


# -- smoke runs --------------------------------------------------------------------


def test_vector_closed_loop_smoke():
    report = run_scenario(_closed_scenario())
    assert report.scenario["tier"] == "vector"
    assert report.completed > 0
    assert report.events_processed > report.completed
    assert report.latency["count"] == report.completed
    assert 0.0 <= report.cpu_utilisation[0] <= 1.0


def test_vector_open_loop_smoke():
    report = run_scenario(_open_scenario())
    assert report.completed > 0
    assert report.submitted > 0
    assert report.bytes_out > 0


def test_vector_tier_is_deterministic():
    """Same scenario, same seed: byte-identical reports."""
    a = run_scenario(_open_scenario()).to_json()
    b = run_scenario(_open_scenario()).to_json()
    assert a == b


# -- tier crosscheck ---------------------------------------------------------------


def test_crosscheck_static_open_is_exact():
    """Static placement + replay arrivals: the tiers must agree exactly —
    same counters, same latency histogram, bucket for bucket."""
    verdict = crosscheck_tiers(_open_scenario())
    assert verdict["passed"]
    assert verdict["latency_bucket_l1"] == 0
    for entry in verdict["counts"].values():
        assert entry["delta"] == 0


@pytest.mark.parametrize("overrides", [{}, {"channels": 4, "seed": 3}])
def test_static_open_utilisation_timelines_are_equal(overrides):
    """In the exact regime the tiers report the same per-channel
    utilisation timeline, window for window."""
    scenario = _open_scenario(**overrides)
    vector = run_scenario(scenario)
    event = run_scenario(replace(scenario, tier="event"))
    assert any(w > 0 for server in vector.channel_util_timeline
               for channel in server for w in channel)
    assert vector.channel_util_timeline == event.channel_util_timeline


def test_crosscheck_batch_stream_compares_replay():
    """A batch-stream scenario crosschecks on the replay stream: the vector
    side must not draw a different arrival process from the event side."""
    verdict = crosscheck_tiers(_open_scenario(arrival_stream="batch"))
    assert verdict["passed"]
    assert verdict["latency_bucket_l1"] == 0
    for entry in verdict["counts"].values():
        assert entry["delta"] == 0


def _shedding_scenario():
    """Static open loop at 1.5x the fleet's model capacity, 0.5 ms deadline."""
    scenario = _open_scenario(message_bytes=16384, deadline_s=5e-4)
    rps = scenario.build_profile().model_metrics.rps
    scenario.rate_rps = 1.5 * scenario.servers * rps
    return scenario


def test_crosscheck_shedding_is_exact():
    """Deadline shedding is exact on the vector tier: the shed fixpoint of
    the capacity-1 stations and the first-free heap of the capacity-4 CPU
    pool shed the same requests the event kernel sheds."""
    scenario = _shedding_scenario()
    shed = run_vector_scenario(scenario).overload["shed"]
    assert shed["cpu"] > 0 and shed["dsa"] > 0  # both shed paths ran
    verdict = crosscheck_tiers(scenario)
    assert verdict["passed"]
    assert verdict["latency_bucket_l1"] == 0
    for entry in verdict["counts"].values():
        assert entry["delta"] == 0


def test_crosscheck_least_loaded_within_tolerance():
    """Dynamic placement is bounded-delta, not exact — but under
    saturation (every thread busy, so placement races don't reorder
    completions) the cohort water-fill lands on the event tier's answer.
    Mid-load is looser: the event tier's degenerately narrow latency band
    spreads across epoch waves (see DESIGN.md), so this pins the
    saturated regime."""
    verdict = crosscheck_tiers(_closed_scenario(connections=96))
    assert verdict["passed"]
    for entry in verdict["counts"].values():
        assert entry["passed"]


# -- guard rails -------------------------------------------------------------------


def test_vector_rejects_event_only_knobs():
    for bad in (
        dict(admission="codel"),
        dict(dsa_queue_limit=64),
        dict(cpu_queue_limit=64),
        dict(brownout_factor=0.5),
        dict(trace_path="/tmp/trace.json"),
        dict(warmup_s=0.004),  # >= duration
        dict(epoch_s=0.0),
        dict(epoch_s=-0.001),  # would never finish walking the epoch grid
        dict(epoch_s=float("nan")),
    ):
        with pytest.raises(ValueError):
            run_scenario(_open_scenario(**bad))


def test_vector_rejects_bad_stream_and_tier():
    with pytest.raises(ValueError):
        run_scenario(_open_scenario(arrival_stream="firehose"))
    with pytest.raises(ValueError):
        run_scenario(_open_scenario(tier="warp"))


def test_vector_batch_stream_runs():
    """The bulk-numpy arrival stream simulates the same process: not
    draw-for-draw identical, but the same load within a loose band."""
    replay = run_scenario(_open_scenario())
    batch = run_scenario(_open_scenario(arrival_stream="batch"))
    assert batch.completed == pytest.approx(replay.completed, rel=0.25)


# -- fault windows -----------------------------------------------------------------


def _fault_scenario(scheduler):
    return _open_scenario(servers=3, rate_rps=100e3, scheduler=scheduler)


@pytest.mark.parametrize("scheduler",
                         ["static", "least-loaded", "adaptive-spill"])
def test_vector_node_down_moves_all_work_off_the_server(scheduler):
    """A whole-run node_down leaves the server idle and loses no request:
    static placement fails over, the water-fill skips the server."""
    scenario = _fault_scenario(scheduler)
    healthy = run_vector_scenario(scenario)
    down = run_vector_scenario(scenario, fault_windows=[
        FaultWindow("node_down", server=1, start_s=0.0,
                    duration_s=scenario.duration_s)])
    assert down.cpu_utilisation[1] == 0.0
    assert down.completed == healthy.completed > 0


@pytest.mark.parametrize("scheduler",
                         ["static", "least-loaded", "adaptive-spill"])
def test_vector_channel_wedge_is_the_busiest_channel(scheduler):
    """A wedged channel's DSA runs slow, so it stays busier than any other."""
    scenario = _fault_scenario(scheduler)
    report = run_vector_scenario(scenario, fault_windows=[
        FaultWindow("channel_wedge", server=0, channel=0, start_s=0.0,
                    duration_s=scenario.duration_s)])
    util = report.channel_utilisation
    wedged = util[0][0]
    others = [u for s, row in enumerate(util) for c, u in enumerate(row)
              if (s, c) != (0, 0)]
    assert all(wedged > u for u in others)


# -- the epoch-grid backlog tracker ------------------------------------------------


def test_backlog_expires_work_at_boundaries():
    backlog = _Backlog()
    backlog.set_grid([1.0, 2.0, 3.0])
    backlog.add(np.asarray([0.5, 1.5, 2.5]), np.asarray([1.0, 2.0, 4.0]))
    assert backlog.at(1.0) == pytest.approx(6.0)  # the 0.5-departure expired
    assert backlog.at(2.0) == pytest.approx(4.0)
    backlog.add(np.asarray([10.0]), np.asarray([8.0]))  # beyond the grid
    assert backlog.at(3.0) == pytest.approx(8.0)  # overflow never expires


# -- CLI wiring --------------------------------------------------------------------


def test_cli_cluster_vector_tier(tmp_path, capsys):
    json_path = tmp_path / "report.json"
    code = cli_main([
        "cluster", "--tier", "vector", "--servers", "1", "--channels", "2",
        "--threads", "4", "--connections", "16", "--ulp", "tls",
        "--message-bytes", "4096", "--duration", "0.002",
        "--warmup", "0.0004", "--seed", "1", "--json-out", str(json_path),
    ])
    assert code == 0
    report = json.loads(json_path.read_text())
    assert report["scenario"]["tier"] == "vector"
    assert report["completed"] > 0


def test_cli_cluster_crosscheck(capsys):
    code = cli_main([
        "cluster", "--crosscheck", "--mode", "open", "--arrival", "poisson",
        "--rate", "60e3", "--sched", "static", "--servers", "2",
        "--channels", "2", "--threads", "4", "--ulp", "tls",
        "--message-bytes", "4096", "--duration", "0.004",
        "--warmup", "0.0005", "--seed", "5",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "crosscheck passed" in out
    assert '"passed": true' in out


def test_cli_cluster_help_lists_tier_flags(capsys):
    with pytest.raises(SystemExit):
        cli_main(["cluster", "--help"])
    out = capsys.readouterr().out
    for flag in ("--tier", "--epoch-s", "--arrival-stream", "--crosscheck"):
        assert flag in out
