"""Fleet-level overload tests: deadline sheds at each station, backlog
refunds, admission rejection, backpressure, and brownout.

These drive a real :class:`~repro.cluster.fleet.Fleet` on the real event
kernel, but with a stub service profile whose station costs are chosen so
exactly one request expires at exactly one station — deterministic down
to the event ordering.
"""

import pytest

from repro.cluster.fleet import Assignment, Fleet, RouteCosts
from repro.cluster.kernel import Simulator
from repro.cluster.loadgen import Request
from repro.cluster.sched import Scheduler
from repro.overload import OverloadConfig, OverloadPolicy
from repro.sim.server import Placement, Ulp
from repro.workloads.corpus import CorpusKind

DEADLINE = 1e-3


class StubProfile:
    """Fixed station costs; placement decides whether the DSA stage runs."""

    def __init__(self, cpu=0.0, mem=0.0, dsa=0.0, link=0.0,
                 placement=Placement.SMARTDIMM, threads=1, spillable=False):
        self.ulp = Ulp.TLS
        self.placement = placement
        self.threads = threads
        self.channels_per_server = 1
        self._spillable = spillable
        self._route = RouteCosts(cpu_seconds=cpu, mem_seconds=mem,
                                 dsa_seconds=dsa, link_seconds=link,
                                 output_bytes=0, ddr_bytes=0.0)

    def route(self, size, kind=None, spill=False):
        if spill:
            return RouteCosts(cpu_seconds=self._route.cpu_seconds,
                              mem_seconds=self._route.mem_seconds,
                              dsa_seconds=0.0,
                              link_seconds=self._route.link_seconds,
                              output_bytes=0, ddr_bytes=0.0)
        return self._route

    @property
    def can_spill(self):
        return self._spillable


class PinScheduler(Scheduler):
    """Always (server 0, channel 0); inherits the base reroute escalation."""

    name = "pin"

    def assign(self, fleet, request):
        return Assignment(server=0, channel=0)


def make_fleet(profile, config, servers=1):
    sim = Simulator(seed=0)
    policy = OverloadPolicy(config)
    fleet = Fleet(sim, profile, PinScheduler(), servers=servers,
                  channels=1, overload=policy)
    return sim, fleet


def req(sim, i):
    return Request(id=i, connection=i, size=4096, kind=CorpusKind.HTML,
                   arrive_s=sim.now)


class TestDeadlineSheds:
    """One station dominates; with three back-to-back arrivals the third
    dequeues past the 1 ms deadline and must shed at exactly that station."""

    def run_three(self, profile):
        sim, fleet = make_fleet(profile, OverloadConfig(deadline_s=DEADLINE))
        requests = [req(sim, i) for i in range(3)]
        for request in requests:
            assert fleet.submit(request) is not None
        sim.run()
        return fleet, requests

    def test_shed_at_cpu_dequeue(self):
        # r0 completes in time; r1 clears the CPU late (and is shed at the
        # NIC rather than transmitted dead); r2 is dead already at its CPU
        # dequeue and must shed *there*, before burning a worker.
        profile = StubProfile(cpu=6e-4, link=1e-6, placement=Placement.CPU)
        fleet, requests = self.run_three(profile)
        assert fleet.shed["cpu"].value == 1
        assert fleet.shed["dsa"].value == 0  # no DSA stage on this route
        assert requests[2].outcome == "shed-cpu"
        assert requests[2].complete_s < 0  # never completed
        assert fleet.deadline_met.value == 1
        assert fleet.completed.value == 1

    def test_shed_at_dsa_dequeue(self):
        profile = StubProfile(cpu=1e-6, dsa=6e-4, link=1e-6,
                              placement=Placement.SMARTDIMM, threads=4)
        fleet, requests = self.run_three(profile)
        assert fleet.shed["dsa"].value == 1
        assert fleet.shed["cpu"].value == 0
        assert requests[2].outcome == "shed-dsa"

    def test_shed_at_link_dequeue(self):
        profile = StubProfile(cpu=1e-6, link=6e-4, placement=Placement.CPU,
                              threads=4)
        fleet, requests = self.run_three(profile)
        assert fleet.shed["link"].value == 1
        assert requests[2].outcome == "shed-link"
        assert fleet.deadline_met.value == 1  # r1 completed, but late
        assert fleet.deadline_missed.value == 1

    def test_sheds_refund_backlog_estimates(self):
        # r1 sheds at its DSA dequeue (refunds the channel backlog), r2 at
        # its CPU dequeue (refunds both — it never reaches the DSA queue).
        # Both estimates must return to zero, or the scheduler would steer
        # around phantom load forever.
        profile = StubProfile(cpu=6e-4, dsa=1e-4, link=1e-6,
                              placement=Placement.SMARTDIMM)
        fleet, requests = self.run_three(profile)
        assert requests[1].outcome == "shed-dsa"
        assert requests[2].outcome == "shed-cpu"
        server = fleet.servers[0]
        assert server.cpu_backlog_seconds == pytest.approx(0.0, abs=1e-12)
        assert server.channels[0].backlog_seconds == pytest.approx(0.0, abs=1e-12)

    def test_no_shedding_when_disabled(self):
        # The "noshed" arm: same deadline, nothing enforced — everything
        # completes and the misses are only counted.
        profile = StubProfile(cpu=6e-4, link=1e-6, placement=Placement.CPU)
        sim, fleet = make_fleet(
            profile, OverloadConfig(deadline_s=DEADLINE, shed_expired=False))
        requests = [req(sim, i) for i in range(3)]
        for request in requests:
            fleet.submit(request)
        sim.run()
        assert sum(c.value for c in fleet.shed.values()) == 0
        assert fleet.deadline_met.value == 1
        assert fleet.deadline_missed.value == 2


class TestAdmission:
    def test_rejected_admission_counts_and_returns_none(self):
        class NeverAdmit(OverloadPolicy):
            def admit(self, now_s, tenant=None):
                return False

        sim = Simulator(seed=0)
        profile = StubProfile(cpu=1e-6, placement=Placement.CPU)
        policy = NeverAdmit(OverloadConfig(deadline_s=DEADLINE))
        fleet = Fleet(sim, profile, PinScheduler(), servers=1, channels=1,
                      overload=policy)
        request = req(sim, 0)
        assert fleet.submit(request) is None
        assert request.outcome == "rejected-admission"
        assert fleet.rejected_admission.value == 1
        assert fleet.submitted.value == 0


def fill_channel(sim, channel):
    """Hold `channel` full at queue limit 1: one holder in service and
    one queued, both far beyond the test horizon."""
    resource = channel.resource

    def hold():
        yield resource.acquire()
        yield 1.0
        resource.release()

    sim.spawn(hold())
    sim.spawn(hold())
    sim.run(until=1e-9)
    assert resource.full


class TestBackpressure:
    @pytest.mark.parametrize("limits", [
        dict(dsa_queue_limit=0), dict(cpu_queue_limit=0),
        dict(dsa_queue_limit=-1), dict(cpu_queue_limit=-3),
    ])
    def test_queue_limit_below_one_rejected(self, limits):
        with pytest.raises(ValueError):
            OverloadConfig(deadline_s=DEADLINE, **limits)

    def test_full_everywhere_rejects(self):
        # The only channel is full; no spill alternative -> the request
        # is rejected at submission.
        profile = StubProfile(cpu=1e-6, dsa=1e-4,
                              placement=Placement.SMARTDIMM)
        sim, fleet = make_fleet(
            profile, OverloadConfig(deadline_s=DEADLINE, dsa_queue_limit=1))
        fill_channel(sim, fleet.servers[0].channels[0])
        request = req(sim, 0)
        assert fleet.submit(request) is None
        assert request.outcome == "rejected-backpressure"
        assert fleet.rejected_backpressure.value == 1

    def test_reroutes_to_server_with_room(self):
        # Server 0's single DSA queue is saturated by holder processes; the
        # pinned assignment must be re-routed to server 1 and complete.
        profile = StubProfile(cpu=1e-6, dsa=1e-4, link=1e-6,
                              placement=Placement.SMARTDIMM, threads=4)
        sim, fleet = make_fleet(
            profile, OverloadConfig(deadline_s=DEADLINE, dsa_queue_limit=1),
            servers=2)
        fill_channel(sim, fleet.servers[0].channels[0])
        request = req(sim, 0)
        assert fleet.submit(request) is not None
        sim.run(until=0.1)
        assert request.server == 1
        assert request.complete_s > 0
        assert fleet.rejected_backpressure.value == 0

    def test_spills_to_cpu_when_dsa_full(self):
        # One server, DSA full, but the ULP can onload: the base reroute
        # escalation forces a CPU spill instead of rejecting.
        profile = StubProfile(cpu=1e-6, dsa=1e-4, link=1e-6,
                              placement=Placement.SMARTDIMM, spillable=True)
        sim, fleet = make_fleet(
            profile, OverloadConfig(deadline_s=DEADLINE, dsa_queue_limit=1))
        fill_channel(sim, fleet.servers[0].channels[0])
        request = req(sim, 0)
        assert fleet.submit(request) is not None
        sim.run()
        assert request.route == "cpu-spill"
        assert request.complete_s > 0
        assert fleet.spilled.value == 1
        assert fleet.rejected_backpressure.value == 0


class TestBrownout:
    def test_hot_ewma_scales_dsa_stage(self):
        profile = StubProfile(dsa=6e-4, placement=Placement.SMARTDIMM)
        config = OverloadConfig(deadline_s=10e-3, admission="codel",
                                brownout_factor=0.5)
        sim = Simulator(seed=0)
        policy = OverloadPolicy(config)
        fleet = Fleet(sim, profile, PinScheduler(), servers=1, channels=1,
                      overload=policy)
        # Pre-heat the sojourn EWMA far above the brownout threshold.
        for _ in range(50):
            policy.observe("dsa", 0.0, 1.0)
        request = req(sim, 0)
        fleet.submit(request)
        sim.run()
        assert request.brownout
        assert fleet.brownouts.value == 1
        # The DSA stage ran at half service time.
        assert request.complete_s == pytest.approx(3e-4, rel=1e-6)
