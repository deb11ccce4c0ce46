"""ABD and chain replication on the simulated fleet: correctness under
health, under replica failure, and under total quorum loss."""

import pytest

from repro.cluster.chaos import FaultWindow, FleetFaultInjector
from repro.cluster.sched import TargetedScheduler
from repro.replication.scenario import ReplicationScenario, run_replication

pytestmark = pytest.mark.replication


def _scenario(protocol, seed=7, **overrides):
    defaults = dict(
        servers=3, channels=2, threads=4,
        protocol=protocol, replicas=3, clients=4, keys=4,
        write_fraction=0.5, value_bytes=4096,
        duration_s=0.008, warmup_s=0.002, seed=seed)
    defaults.update(overrides)
    return ReplicationScenario(**defaults)


def _node_down(server, start_s=0.003, duration_s=0.003):
    return FleetFaultInjector([
        FaultWindow(kind="node_down", server=server,
                    start_s=start_s, duration_s=duration_s)])


class TestHealthyRuns:
    @pytest.mark.parametrize("protocol", ["abd", "chain"])
    def test_ops_complete_with_zero_violations(self, protocol):
        report = run_replication(_scenario(protocol))
        assert report.ops["ops_ok"] > 0
        assert report.ops["reads_ok"] > 0 and report.ops["writes_ok"] > 0
        assert report.ops["ops_failed"] == 0
        assert report.consistency["violation_count"] == 0

    def test_healthy_abd_never_times_out_or_retries(self):
        report = run_replication(_scenario("abd"))
        assert report.ops["hop_timeouts"] == 0
        assert report.ops["op_retries"] == 0
        assert report.ops["retry_amplification"] == 1.0

    def test_abd_reads_take_the_agreement_fast_path(self):
        # With every replica answering every phase, quorums agree and the
        # write-back phase is provably unnecessary.
        report = run_replication(_scenario("abd"))
        assert report.ops["fast_path_reads"] > 0
        assert report.ops["writeback_reads"] == 0


class TestReplicaFailure:
    @pytest.mark.parametrize("protocol", ["abd", "chain"])
    def test_survives_one_replica_down(self, protocol):
        report = run_replication(_scenario(protocol),
                                 fault_injector=_node_down(1))
        assert report.ops["ops_ok"] > 0
        assert report.ops["hop_timeouts"] > 0  # detection was paid
        assert report.consistency["violation_count"] == 0
        # The failover event is attributed to the dead replica.
        assert len(report.failover) == 1
        assert report.failover[0]["server"] == 1
        assert report.failover[0]["latency_s"] is not None

    def test_chain_tail_death_fails_reads_over_to_predecessor(self):
        # Replica 2 is the preferred tail; reads must land on replica 1.
        report = run_replication(_scenario("chain"),
                                 fault_injector=_node_down(2))
        assert report.ops["reads_ok"] > 0
        assert report.consistency["violation_count"] == 0

    def test_chain_resyncs_rejoining_replica(self):
        # The window ends mid-run; the next op probe must replay committed
        # state onto the rejoined replica before reusing it.
        report = run_replication(
            _scenario("chain"),
            fault_injector=_node_down(1, start_s=0.002, duration_s=0.002))
        assert report.ops["resyncs"] >= 1
        assert report.ops["resync_keys"] >= 1
        assert report.consistency["violation_count"] == 0

    def test_abd_goodput_survives_inside_the_fault_window(self):
        report = run_replication(_scenario("abd"),
                                 fault_injector=_node_down(1))
        assert report.goodput["fault_ops"] > 0


class TestQuorumLoss:
    def test_majority_down_fails_ops_fast_not_forever(self):
        # 2 of 3 replicas dead: no quorum exists.  The retry budget must
        # convert would-be-infinite retry loops into fast failures.
        injector = FleetFaultInjector([
            FaultWindow(kind="node_down", server=1,
                        start_s=0.003, duration_s=0.004),
            FaultWindow(kind="node_down", server=2,
                        start_s=0.003, duration_s=0.004)])
        report = run_replication(
            _scenario("abd", retry_capacity=4.0, retry_refill=0.0),
            fault_injector=injector)
        assert report.ops["ops_failed"] > 0
        assert report.ops["quorum_shortfalls"] > 0
        # Failed ops are recorded but never flagged: a failed op has no
        # consistency obligations.
        assert report.consistency["violation_count"] == 0
        # The budget bounded the retries: no more than capacity + refills.
        budget = report.ops["retry_budget"]
        assert budget["granted"] <= 4.0 + 0.0 * budget["successes"]
        assert budget["denied"] > 0


class TestDeterminism:
    @pytest.mark.parametrize("protocol", ["abd", "chain"])
    def test_same_seed_byte_identical_reports(self, protocol):
        def go():
            return run_replication(
                _scenario(protocol), fault_injector=_node_down(1)).to_json()

        assert go() == go()

    def test_different_seeds_differ(self):
        a = run_replication(_scenario("abd", seed=7)).to_json()
        b = run_replication(_scenario("abd", seed=8)).to_json()
        assert a != b


class TestValidation:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            run_replication(_scenario("paxos"))

    def test_more_replicas_than_servers_rejected(self):
        with pytest.raises(ValueError):
            run_replication(_scenario("abd", replicas=5, servers=3))

    def test_smartnic_placement_rejected(self):
        # Observation 1: NICs cannot run the DEFLATE half of a hop.
        with pytest.raises(ValueError):
            run_replication(_scenario("abd", placement="smartnic"))


class TestTargetedBackpressure:
    """``TargetedScheduler.reroute_full`` under bounded queues: a hop that
    finds its queue full moves channel or spills on its own server, or is
    rejected, and never runs on another server."""

    @staticmethod
    def _reroutes(monkeypatch, **overrides):
        seen = []
        original = TargetedScheduler.reroute_full

        def spy(self, fleet, request, assignment):
            placed = original(self, fleet, request, assignment)
            seen.append((request.target, assignment, placed))
            return placed

        monkeypatch.setattr(TargetedScheduler, "reroute_full", spy)
        report = run_replication(ReplicationScenario(
            servers=3, channels=2, keys=8, deadline_s=1e-3, seed=5,
            duration_s=0.010, **overrides))
        assert report.consistency["violation_count"] == 0
        for target, _, placed in seen:
            assert target >= 0
            assert placed is None or placed.server == target
        return seen

    def test_full_channel_moves_channel_or_spills_on_the_target(self, monkeypatch):
        seen = self._reroutes(monkeypatch, dsa_bytes_per_sec=100e6, threads=16,
                              clients=64, dsa_queue_limit=1)
        spilled = [placed.spill and not assignment.spill
                   for _, assignment, placed in seen]
        assert all(placed is not None for _, _, placed in seen)
        assert any(spilled) and not all(spilled)

    def test_full_target_rejects(self, monkeypatch):
        seen = self._reroutes(monkeypatch, threads=2, clients=24,
                              dsa_queue_limit=1, cpu_queue_limit=1)
        assert seen and all(placed is None for _, _, placed in seen)
