"""Scheduler policy tests: balance, spill dynamics, and the Observation-2
payoff — adaptive spill strictly beating static placement at p99 when a
load burst saturates the DSA queues."""

import pytest

from repro.cluster import ClusterScenario, make_scheduler, run_scenario
from repro.cluster.fleet import Fleet
from repro.cluster.kernel import Simulator
from repro.cluster.loadgen import Request
from repro.cluster.sched import (
    SCHEDULERS,
    AdaptiveSpillScheduler,
    LeastLoadedScheduler,
    StaticScheduler,
    TargetedScheduler,
)
from repro.workloads.corpus import CorpusKind


def _saturated_scenario(scheduler, seed=7):
    """Open-loop bursty deflate with DSAs slowed to 300 MB/s/channel: the
    burst exceeds DSA fleet capacity but stays under DSA+CPU capacity."""
    return ClusterScenario(
        servers=2, channels=4, threads=10, ulp="deflate",
        placement="smartdimm", message_bytes=16384,
        mode="open", arrival="bursty", rate_rps=100e3, burst_rps=160e3,
        base_s=0.008, burst_s=0.014, dsa_bytes_per_sec=300e6,
        scheduler=scheduler, duration_s=0.04, warmup_s=0.004, seed=seed,
    )


def _light_scenario(scheduler):
    return ClusterScenario(
        servers=2, channels=4, connections=32, ulp="tls",
        message_bytes=4096, scheduler=scheduler,
        duration_s=0.002, warmup_s=0.0005, seed=2,
    )


def test_adaptive_spill_beats_static_p99_under_saturation():
    static = run_scenario(_saturated_scenario(StaticScheduler.name))
    adaptive = run_scenario(_saturated_scenario(AdaptiveSpillScheduler.name))
    assert adaptive.latency["p99"] < static.latency["p99"], (
        "adaptive p99 %.0fus !< static p99 %.0fus"
        % (adaptive.latency["p99"] * 1e6, static.latency["p99"] * 1e6)
    )
    # The mechanism, not just the outcome: work actually moved to the CPU.
    assert adaptive.spilled > 0
    assert static.spilled == 0
    # And spilling work should not cost throughput.
    assert adaptive.rps >= 0.95 * static.rps


def test_adaptive_does_not_spill_under_light_load():
    report = run_scenario(_light_scenario(AdaptiveSpillScheduler.name))
    # Offload is strictly better when the DSA queue is short (Observation
    # 2's other half): nothing should spill.
    assert report.spilled == 0
    assert report.dsa_served > 0


def test_least_loaded_balances_channels():
    report = run_scenario(_saturated_scenario(LeastLoadedScheduler.name))
    for server_utils in report.channel_utilisation:
        spread = max(server_utils) - min(server_utils)
        assert spread < 0.15, "unbalanced channels: %r" % (server_utils,)


def test_static_pins_connections_to_channels():
    report = run_scenario(_light_scenario(StaticScheduler.name))
    # 32 connections over 2x4 slots: all slots see work, none spills.
    assert report.spilled == 0
    assert report.completed > 0


def test_make_scheduler_registry():
    for name in SCHEDULERS:
        assert make_scheduler(name).name == name
    with pytest.raises(ValueError):
        make_scheduler("definitely-not-a-policy")
    adaptive = make_scheduler(AdaptiveSpillScheduler.name, spill_factor=2.0)
    assert adaptive.spill_factor == 2.0
    with pytest.raises(ValueError):
        AdaptiveSpillScheduler(spill_factor=0.0)


# -- ties go to the lowest index -------------------------------------------------------


def _tie_fleet():
    scenario = ClusterScenario(servers=3, channels=3, threads=1, ulp="tls",
                               placement="smartdimm", message_bytes=16384)
    sim = Simulator(1)
    fleet = Fleet(sim, scenario.build_profile(), TargetedScheduler(),
                  servers=3, channels=3)
    return sim, fleet


def _request(ident, target=-1):
    return Request(id=ident, connection=-1, size=16384, kind=CorpusKind.HTML,
                   arrive_s=0.0, target=target)


def _picks(fleet, target=-1):
    """The (server, channel) every backlog-driven policy picks now, and
    the ``min(key=(backlog, index))`` pick the loops must reproduce."""
    server = min(fleet.servers, key=lambda s: (s.backlog_seconds, s.index))
    channel = min(server.channels, key=lambda c: (c.backlog_seconds, c.index))
    selected = LeastLoadedScheduler().select(fleet)
    picks = {"reference": (server.index, channel.index),
             "select": (selected[0].index, selected[1].index)}
    for policy in (AdaptiveSpillScheduler(), TargetedScheduler()):
        assignment = policy.assign(fleet, _request(99, target))
        picks[policy.name] = (assignment.server, assignment.channel)
    return picks


def test_zero_backlog_ties_pick_server_and_channel_zero():
    _, fleet = _tie_fleet()
    assert all(server.backlog_seconds == 0.0 for server in fleet.servers)
    assert set(_picks(fleet).values()) == {(0, 0)}
    # A targeted hop keeps its server and takes that server's channel 0.
    assert _picks(fleet, target=2)["targeted"] == (2, 0)


def test_mid_run_backlog_ties_pick_the_lowest_index():
    sim, fleet = _tie_fleet()
    # Server 0 takes two requests, servers 1 and 2 one each: 1 and 2 tie
    # below 0, and inside each of them channels 1 and 2 tie below 0.
    for ident, target in enumerate((0, 0, 1, 2)):
        assert fleet.submit(_request(ident, target)) is not None
    route = fleet.profile.route(16384, CorpusKind.HTML)
    sim.run(until=0.5 * route.cpu_seconds)  # first CPU stages in service
    first, second, third = fleet.servers
    assert 0.0 < second.backlog_seconds == third.backlog_seconds \
        < first.backlog_seconds
    assert [c.backlog_seconds for c in second.channels] == [
        route.dsa_seconds, 0.0, 0.0]
    assert set(_picks(fleet).values()) == {(1, 1)}
    assert _picks(fleet, target=2)["targeted"] == (2, 1)
