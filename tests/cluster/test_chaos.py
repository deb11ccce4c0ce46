"""Fleet-level chaos: fault windows, failover, breaker spill, and reports."""

from types import SimpleNamespace

import pytest

from repro.cluster.chaos import (
    FaultWindow,
    FleetFaultInjector,
    epoch_fault_state,
    live_quorum,
    reroute_down,
)
from repro.cluster.scenario import ClusterScenario, run_scenario

pytestmark = pytest.mark.faults


def _scenario(seed=7):
    return ClusterScenario(
        servers=3, channels=2, connections=64, scheduler="static",
        duration_s=0.016, warmup_s=0.004, seed=seed)


def _injector():
    return FleetFaultInjector([
        FaultWindow(kind="channel_wedge", server=0, channel=0,
                    start_s=0.005, duration_s=0.004, dsa_slowdown=50.0),
        FaultWindow(kind="node_down", server=1, start_s=0.008,
                    duration_s=0.004),
    ], breaker_cooldown_s=0.5e-3)


class TestFaultWindow:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultWindow(kind="gamma_ray", server=0, start_s=0.0, duration_s=1.0)

    def test_wedge_requires_channel(self):
        with pytest.raises(ValueError):
            FaultWindow(kind="channel_wedge", server=0, start_s=0.0,
                        duration_s=1.0)

    @pytest.mark.parametrize("slowdown", [0.5, 0.0, -1.0, float("nan")])
    def test_slowdown_below_one_rejected(self, slowdown):
        # A wedge cannot make a channel faster; the event tier and
        # epoch_fault_state would disagree on such a multiplier.
        with pytest.raises(ValueError):
            FaultWindow(kind="channel_wedge", server=0, channel=0,
                        start_s=0.0, duration_s=1.0, dsa_slowdown=slowdown)

    def test_duration_must_be_positive(self):
        with pytest.raises(ValueError):
            FaultWindow(kind="node_down", server=0, start_s=0.0, duration_s=0.0)

    def test_end_and_mttr(self):
        window = FaultWindow(kind="node_down", server=0, start_s=2.0,
                             duration_s=3.0)
        assert window.end_s == 5.0
        assert window.mttr_s is None
        window.restored_s = 5.5
        assert window.mttr_s == pytest.approx(3.5)
        assert window.to_dict()["mttr_s"] == pytest.approx(3.5)


class TestUnionSeconds:
    def test_overlapping_intervals_counted_once(self):
        union = FleetFaultInjector._union_seconds(
            [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 10.0)
        assert union == pytest.approx(4.0)

    def test_clipped_to_measurement_window(self):
        union = FleetFaultInjector._union_seconds(
            [(0.0, 5.0), (8.0, 20.0)], 4.0, 10.0)
        assert union == pytest.approx(3.0)

    def test_disjoint_outside_window_is_zero(self):
        assert FleetFaultInjector._union_seconds([(0.0, 1.0)], 2.0, 3.0) == 0.0


class TestReroute:
    def test_skips_down_nodes_deterministically(self):
        injector = FleetFaultInjector([])
        injector._down = {1, 2}
        assert injector._reroute(1, 4) == 3
        assert injector._reroute(2, 4) == 3

    def test_all_down_returns_original(self):
        injector = FleetFaultInjector([])
        injector._down = {0, 1}
        assert injector._reroute(0, 2) == 0

    def test_free_function_matches_injector_walk(self):
        assert reroute_down(1, {1, 2}, 4) == 3
        assert reroute_down(0, {0, 1}, 2) == 0  # all down: original


class TestGroupReroute:
    """Quorum-aware rerouting for multi-replica groups (the regression:
    the plain linear probe could land on a second down replica or on a
    server outside the replica set entirely)."""

    def test_stays_inside_the_replica_set(self):
        # Group {0, 2, 4} on a 6-server fleet: servers 1, 3, 5 exist but
        # are NOT replicas, so failover must never land on them.
        assert reroute_down(2, {2}, 6, group=[0, 2, 4]) == 4

    def test_skips_every_down_replica_not_just_the_neighbour(self):
        # 2's group successor 4 is also down: the walk must continue to 0.
        assert reroute_down(2, {2, 4}, 6, group=[0, 2, 4]) == 0

    def test_whole_group_down_is_reported_not_masked(self):
        assert reroute_down(2, {0, 2, 4}, 6, group=[0, 2, 4]) is None

    def test_non_member_scans_from_the_group_head(self):
        assert reroute_down(1, set(), 6, group=[0, 2, 4]) == 0
        assert reroute_down(1, {0}, 6, group=[0, 2, 4]) == 2

    def test_reversed_group_walks_to_chain_predecessor(self):
        # chain_tail() uses the reversed group so a dead tail fails over
        # backwards to the longest live prefix's last member.
        assert reroute_down(2, {2}, 3, group=[2, 1, 0]) == 1
        assert reroute_down(2, {2, 1}, 3, group=[2, 1, 0]) == 0


class TestLiveQuorum:
    def test_preserves_group_order(self):
        assert live_quorum([3, 1, 2], set()) == [3, 1, 2]
        assert live_quorum([3, 1, 2], {1}) == [3, 2]

    def test_empty_when_all_down(self):
        assert live_quorum([0, 1], {0, 1}) == []


class TestAttachValidation:
    def test_out_of_range_server_rejected(self):
        injector = FleetFaultInjector([
            FaultWindow(kind="node_down", server=9, start_s=0.001,
                        duration_s=0.001)])
        with pytest.raises(ValueError):
            run_scenario(_scenario(), fault_injector=injector)

    @pytest.mark.parametrize("window", [
        FaultWindow(kind="node_down", server=-1, start_s=0.001, duration_s=0.001),
        FaultWindow(kind="channel_wedge", server=0, channel=99, start_s=0.001,
                    duration_s=0.001),
        FaultWindow(kind="channel_wedge", server=0, channel=-1, start_s=0.001,
                    duration_s=0.001),
    ])
    def test_window_outside_the_fleet_rejected(self, window):
        with pytest.raises(ValueError):
            run_scenario(_scenario(), fault_injector=FleetFaultInjector([window]))


class _ProbedInjector(FleetFaultInjector):
    """Samples server 0's down state and channel (0, 0)'s multiplier."""

    PROBES_MS = (3, 5, 7, 9, 11)

    def attach(self, sim, fleet):
        super().attach(sim, fleet)
        self.seen = {}
        for ms in self.PROBES_MS:
            sim.schedule(ms * 1e-3, self._probe, ms)

    def _probe(self, ms):
        self.seen[ms] = (self.is_down(0), self.dsa_multiplier(0, 0))


class TestOverlappingWindows:
    """Two windows of one kind on one target, [2, 6) and [4, 10) ms: the
    fault holds until the later one ends, as the vector tier's
    :func:`epoch_fault_state` has it."""

    @staticmethod
    def _run(first: dict, second: dict):
        injector = _ProbedInjector([
            FaultWindow(server=0, start_s=0.002, duration_s=0.004, **first),
            FaultWindow(server=0, start_s=0.004, duration_s=0.006, **second),
        ])
        scenario = ClusterScenario(
            servers=2, channels=2, connections=16, scheduler="static",
            duration_s=0.012, warmup_s=0.001, seed=3)
        run_scenario(scenario, fault_injector=injector)
        return injector

    def test_node_stays_down_until_the_last_window_ends(self):
        injector = self._run({"kind": "node_down"}, {"kind": "node_down"})
        assert [injector.seen[ms][0] for ms in _ProbedInjector.PROBES_MS] == [
            True, True, True, True, False]
        for ms in (7, 9):
            down, _ = epoch_fault_state(injector.windows, ms * 1e-3, (ms + 1) * 1e-3)
            assert down == {0}
        # Both windows are restored when the node rejoins, at 10 ms.
        assert [w.restored_s for w in injector.windows] == [0.01, 0.01]

    def test_wedge_keeps_the_largest_slowdown(self):
        wedge = {"kind": "channel_wedge", "channel": 0}
        injector = self._run(dict(wedge, dsa_slowdown=50.0),
                             dict(wedge, dsa_slowdown=20.0))
        assert [injector.seen[ms][1] for ms in _ProbedInjector.PROBES_MS] == [
            50.0, 50.0, 20.0, 20.0, 1.0]
        for ms in _ProbedInjector.PROBES_MS:
            _, wedged = epoch_fault_state(injector.windows, ms * 1e-3, ms * 1e-3)
            assert wedged.get((0, 0), 1.0) == injector.seen[ms][1]

    def test_overlapping_storms_keep_the_largest_rate(self):
        injector = FleetFaultInjector([
            FaultWindow(kind="sdc_storm", server=0, start_s=0.002,
                        duration_s=0.004, sdc_rate=0.5),
            FaultWindow(kind="sdc_storm", server=0, start_s=0.004,
                        duration_s=0.006, sdc_rate=0.1),
        ])
        first, second = injector.windows
        injector._start(first)
        injector._start(second)
        assert injector._sdc == {0: 0.5}
        injector._end(first)
        assert injector._sdc == {0: 0.1}
        injector._end(second)
        assert injector._sdc == {}

    @pytest.fixture(scope="class")
    def two_wedges(self):
        """Wedges [2, 6) and [4, 10) ms on one channel under closed-loop
        TLS; the first trips the channel's breaker before the second
        starts."""
        injector = FleetFaultInjector([
            FaultWindow(kind="channel_wedge", server=0, channel=0,
                        start_s=0.002, duration_s=0.004),
            FaultWindow(kind="channel_wedge", server=0, channel=0,
                        start_s=0.004, duration_s=0.006),
        ])
        scenario = ClusterScenario(
            servers=2, channels=2, connections=64, ulp="tls",
            message_bytes=16384, mode="closed", scheduler="static",
            duration_s=0.020, seed=3)
        run_scenario(scenario, fault_injector=injector)
        return injector

    def test_breaker_reclose_restores_every_ended_wedge(self, two_wedges):
        first, second = two_wedges.windows
        assert 0.002 <= first.detected_s < 0.004
        # The channel recovers once, after both wedges end: that one
        # breaker re-close restores both windows.
        assert first.restored_s is not None and first.restored_s >= 0.010
        assert second.restored_s == first.restored_s
        assert second.mttr_s == pytest.approx(first.restored_s - 0.004)

    def test_every_window_is_detected_before_it_is_restored(self, two_wedges):
        """The second wedge starts with the breaker already OPEN, so no
        CLOSED -> OPEN edge falls inside it: it is detected at its start."""
        for window in two_wedges.windows:
            assert window.start_s <= window.detected_s <= window.restored_s
        second = two_wedges.windows[1]
        assert second.detected_s == second.start_s

    def test_a_window_starting_on_an_open_breaker_is_detected_at_its_start(self):
        windows = [
            FaultWindow(kind="channel_wedge", server=0, channel=0,
                        start_s=0.004, duration_s=0.002),
            FaultWindow(kind="channel_wedge", server=0, channel=1,
                        start_s=0.004, duration_s=0.002),
            FaultWindow(kind="sdc_storm", server=0, start_s=0.004,
                        duration_s=0.002),
        ]
        injector = FleetFaultInjector(windows, breaker_threshold=1)
        injector.sim = SimpleNamespace(now=0.004)
        injector._breaker(0, 0).record_failure(0.003)  # channel 0 OPEN
        for window in windows:
            injector._start(window)
        # A storm covers every channel of its server, so channel 0's open
        # breaker detects it too; channel 1's wedge waits for its own.
        assert [w.detected_s for w in windows] == [0.004, None, 0.004]

    def test_a_failed_half_open_probe_detects_every_window_on_the_lane(self):
        """A slow probe re-opens the breaker: that detects the channel's
        wedge and the server's SDC storm alike."""
        windows = [
            FaultWindow(kind="channel_wedge", server=0, channel=0,
                        start_s=0.004, duration_s=0.004),
            FaultWindow(kind="sdc_storm", server=0, start_s=0.004,
                        duration_s=0.004, sdc_rate=1e-6),
        ]
        injector = FleetFaultInjector(windows, breaker_threshold=1,
                                      breaker_cooldown_s=1e-3)
        injector.sim = SimpleNamespace(now=0.004)
        breaker = injector._breaker(0, 0)
        breaker.record_failure(0.002)
        assert breaker.allow(0.004)  # cooldown over: HALF_OPEN probe
        for window in windows:
            injector._start(window)
        assert [w.detected_s for w in windows] == [None, None]
        injector.sim.now = 0.005
        injector.observe_dsa(0, 0, observed_seconds=10.0, nominal_seconds=1.0)
        assert [w.detected_s for w in windows] == [0.005, 0.005]

    def test_detection_marks_every_active_window(self):
        windows = [
            FaultWindow(kind="channel_wedge", server=0, channel=0,
                        start_s=0.002, duration_s=0.004),
            FaultWindow(kind="channel_wedge", server=0, channel=0,
                        start_s=0.003, duration_s=0.006),
            FaultWindow(kind="channel_wedge", server=0, channel=0,
                        start_s=0.005, duration_s=0.001),
        ]
        injector = FleetFaultInjector(windows)
        injector.sim = SimpleNamespace(now=0.004)
        injector._mark_detected("channel_wedge", 0, 0)
        # Both started windows are detected; the later one is not yet.
        assert [w.detected_s for w in windows] == [0.004, 0.004, None]
        injector.sim.now = 0.0065
        injector._mark_restored(0, 0)
        assert [w.restored_s for w in windows] == [0.0065, None, 0.0065]


class TestChaosScenario:
    @pytest.fixture(scope="class")
    def report(self):
        return run_scenario(_scenario(), fault_injector=_injector())

    def test_chaos_section_present_and_complete(self, report):
        chaos = report.to_dict()["chaos"]
        assert len(chaos["windows"]) == 2
        assert 0.0 < chaos["availability"] < 1.0
        assert chaos["fault_seconds"] > 0
        assert chaos["rerouted"] > 0
        assert chaos["breaker_spills"] > 0
        assert chaos["degraded_served"] > 0

    def test_faults_detected_quickly(self, report):
        for window in report.chaos["windows"]:
            assert window["detected_s"] is not None
            assert window["detected_s"] >= window["start_s"]
            assert window["detected_s"] < window["start_s"] + window["duration_s"]

    def test_mttr_spans_fault_duration(self, report):
        for window in report.chaos["windows"]:
            assert window["restored_s"] is not None
            # Service returns only after the underlying fault clears.
            assert window["restored_s"] >= window["start_s"] + window["duration_s"]
            assert window["mttr_s"] >= window["duration_s"]

    def test_goodput_suffers_inside_fault_windows(self, report):
        chaos = report.chaos
        assert chaos["goodput_in_fault_rps"] < chaos["goodput_clear_rps"]

    def test_deterministic_across_runs(self, report):
        again = run_scenario(_scenario(), fault_injector=_injector())
        assert report.to_json() == again.to_json()

    def test_baseline_report_has_no_chaos_key(self):
        baseline = run_scenario(_scenario())
        assert baseline.chaos is None
        assert "chaos" not in baseline.to_dict()
