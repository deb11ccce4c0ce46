"""The fleet's stage-callback request path against the generators it
replaced.

:func:`serve`, :func:`arrival_loop` and :func:`connection_loop` below are
the request path's oracle: ``Fleet._serve``, ``OpenLoopLoad._arrival_loop``
and ``ClosedLoopLoad._connection_loop`` as they stood before the fleet's
stages became kernel callbacks, one process per request and per load loop.
:func:`install_oracle` swaps them in with ``monkeypatch``: ``Fleet.submit``
builds a :class:`~repro.cluster.fleet.Job`, so patching that name spawns
the generator instead, and the load generators' ``start`` spawns the old
loops.  Both paths must fire every callback in the same order: the same
``to_json()`` bytes, the same ``events_processed`` and, when the draw
attaches a trace recorder, the same Chrome-trace bytes on generated small
scenarios (open and closed loops, FIFO and DRR-QoS tenants, overload
shedding on and off, with and without a fleet fault window).  The oracle
calls the fleet's trace and overload hooks unconditionally, so a hook the
stage chain skips while it is attached fails the comparison.
"""

import os
import tempfile
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import fleet as fleet_module
from repro.cluster.chaos import FaultWindow, FleetFaultInjector
from repro.cluster.fleet import TRACE_TID_CHANNEL0, TRACE_TID_CPU, TRACE_TID_LINK
from repro.cluster.loadgen import ClosedLoopLoad, OpenLoopLoad
from repro.cluster.scenario import ClusterScenario, run_scenario
from repro.qos.tenants import TenantSpec


def _acquire(resource, request, cost_s):
    """Station acquire: DRR stations take the (tenant, class, cost)
    triple; FIFO stations take nothing."""
    if resource.arbiter is not None:
        return resource.acquire(request.tenant, request.klass, cost_s)
    return resource.acquire()


def serve(fleet, request, server, channel, route):
    """Oracle: one request through its stations as a generator process."""
    sim = fleet.sim
    enqueued = sim.now
    yield _acquire(server.cpu, request, route.cpu_seconds)
    request.waits["cpu"] = sim.now - enqueued
    fleet._observe_wait("cpu", request.waits["cpu"], request)
    if fleet._shed_expired(request, "cpu"):
        server.cpu.release()
        server.cpu_backlog_seconds -= route.cpu_seconds
        if route.dsa_seconds > 0.0:
            channel.backlog_seconds -= route.dsa_seconds
        return request
    started = sim.now
    yield route.cpu_seconds
    server.cpu.release()
    server.cpu_backlog_seconds -= route.cpu_seconds
    fleet._trace(request, "cpu", started, route.cpu_seconds, TRACE_TID_CPU)
    yield server.membus.acquire()
    started = sim.now
    yield route.mem_seconds
    server.membus.release()
    if route.dsa_seconds > 0.0:
        enqueued = sim.now
        yield _acquire(channel.resource, request, route.dsa_seconds)
        request.waits["dsa"] = sim.now - enqueued
        fleet._observe_wait("dsa", request.waits["dsa"], request)
        if fleet._shed_expired(request, "dsa"):
            channel.resource.release()
            channel.backlog_seconds -= route.dsa_seconds
            return request
        started = sim.now
        dsa_seconds = route.dsa_seconds
        if fleet.fault_injector is not None:
            dsa_seconds *= fleet.fault_injector.dsa_multiplier(
                server.index, channel.index)
        yield dsa_seconds
        channel.resource.release()
        channel.backlog_seconds -= route.dsa_seconds
        channel.served += 1
        if fleet.measuring:
            fleet.dsa_served.inc()
        if fleet.fault_injector is not None:
            fleet.fault_injector.observe_dsa(
                server.index, channel.index,
                request.waits["dsa"] + dsa_seconds, route.dsa_seconds)
        fleet._trace(request, "dsa", started, dsa_seconds,
                     TRACE_TID_CHANNEL0 + channel.index)
    yield server.link.acquire()
    if fleet._shed_expired(request, "link"):
        server.link.release()
        return request
    started = sim.now
    yield route.link_seconds
    server.link.release()
    fleet._trace(request, "tx", started, route.link_seconds, TRACE_TID_LINK)
    request.complete_s = sim.now
    if fleet.fault_injector is not None and fleet.measuring:
        fleet.fault_injector.note_completion(sim.now)
    if fleet.measuring:
        fleet.completed.inc()
        fleet.bytes_out.inc(route.output_bytes)
        fleet.latency.record(request.latency_s)
        if request.route == "cpu-spill":
            fleet.spill_latency.record(request.latency_s)
        fleet.wait_cpu.record(request.waits.get("cpu", 0.0))
        if "dsa" in request.waits:
            fleet.wait_dsa.record(request.waits["dsa"])
        if fleet.overload is not None or fleet.qos is not None:
            if request.met_deadline:
                fleet.deadline_met.inc()
            else:
                fleet.deadline_missed.inc()
            met = fleet.class_deadline.setdefault(request.klass, [0, 0])
            met[0 if request.met_deadline else 1] += 1
        if request.tenant:
            stats = fleet._tenant_slot(request.tenant)
            stats["completed"] += 1
            stats["bytes_out"] += route.output_bytes
            stats["latency"].record(request.latency_s)
            if request.met_deadline:
                stats["deadline_met"] += 1
            else:
                stats["deadline_missed"] += 1
    return request


def arrival_loop(load):
    """Oracle: the open-loop arrival process as a generator."""
    while True:
        yield load.arrivals.next_gap(load.sim.now, load.rng)
        load.fleet.submit(load._make_request(connection=-1))


def connection_loop(load, connection):
    """Oracle: one closed-loop connection as a generator."""
    yield load.STAGGER_S * connection / load.connections
    while True:
        request = load._make_request(connection)
        done = load.fleet.submit(request)
        if done is None:
            yield load.REJECT_BACKOFF_S
            continue
        yield done
        if load.think_s > 0:
            yield load.rng.expovariate(1.0 / load.think_s)


def install_oracle(monkeypatch):
    """Route every request and load loop through the generator oracle."""
    monkeypatch.setattr(
        fleet_module, "Job",
        lambda fleet, request, server, channel, route: fleet.sim.spawn(
            serve(fleet, request, server, channel, route)))
    monkeypatch.setattr(
        OpenLoopLoad, "start", lambda load: load.sim.spawn(arrival_loop(load)))

    def start_connections(load):
        for connection in range(load.connections):
            load.sim.spawn(connection_loop(load, connection))

    monkeypatch.setattr(ClosedLoopLoad, "start", start_connections)


# -- generated scenarios ------------------------------------------------------------


@st.composite
def _tenants(draw):
    """Two or three tenants, open and closed, across priority classes."""
    specs = []
    for index in range(draw(st.integers(2, 3))):
        closed = draw(st.booleans())
        specs.append(TenantSpec(
            name="t%d" % index,
            klass=draw(st.sampled_from(("latency", "standard", "batch"))),
            weight=draw(st.sampled_from((0.5, 1.0, 3.0))),
            load_factor=draw(st.sampled_from((0.5, 1.5))),
            connections=draw(st.integers(2, 16)) if closed else 0,
            queue_limit=draw(st.sampled_from((None, 2)))))
    return specs


@st.composite
def _scenarios(draw):
    servers = draw(st.integers(1, 2))
    channels = draw(st.integers(1, 3))
    scenario = ClusterScenario(
        servers=servers, channels=channels, threads=draw(st.integers(1, 3)),
        ulp=draw(st.sampled_from(("tls", "deflate"))),
        placement=draw(st.sampled_from(("smartdimm", "cpu", "quickassist"))),
        message_bytes=draw(st.sampled_from((4096, 16384))),
        mode=draw(st.sampled_from(("open", "closed"))),
        connections=draw(st.integers(1, 48)),
        think_s=draw(st.sampled_from((0.0, 2e-5))),
        arrival=draw(st.sampled_from(("poisson", "bursty"))),
        base_s=2e-4, burst_s=2e-4,
        scheduler=draw(st.sampled_from(
            ("static", "least-loaded", "adaptive-spill"))),
        dsa_bytes_per_sec=draw(st.sampled_from((None, 1e8))),
        duration_s=1.2e-3, warmup_s=draw(st.sampled_from((0.0, 3e-4))),
        seed=draw(st.integers(1, 1000)),
    )
    if draw(st.booleans()):
        # Overload control: deadlines shed (or only measured), CoDel,
        # bounded queues and brownout.
        scenario.deadline_s = draw(st.sampled_from((3e-5, 1e-4, 3e-4)))
        scenario.shed_expired = draw(st.booleans())
        scenario.admission = draw(st.sampled_from(("none", "codel")))
        scenario.dsa_queue_limit = draw(st.sampled_from((None, 1, 3)))
        scenario.cpu_queue_limit = draw(st.sampled_from((None, 2)))
        scenario.brownout_factor = draw(st.sampled_from((1.0, 0.5)))
    if draw(st.booleans()):
        scenario.tenants = draw(_tenants())
        scenario.qos_mode = draw(st.sampled_from(("drr", "fifo")))
    windows = []
    if draw(st.booleans()):
        kind = draw(st.sampled_from(("node_down", "channel_wedge")))
        windows.append(FaultWindow(
            kind=kind, server=draw(st.integers(0, servers - 1)),
            start_s=draw(st.sampled_from((2e-4, 5e-4))), duration_s=4e-4,
            channel=(draw(st.integers(0, channels - 1))
                     if kind == "channel_wedge" else None)))
    traced = draw(st.booleans())
    return scenario, windows, traced


def _run(scenario, windows, trace_path=None):
    """Run `scenario`; return its report and the bytes of its Chrome
    trace, written to `trace_path` (``None``: untraced)."""
    # A window records what the run observed, so each run gets fresh ones.
    injector = (FleetFaultInjector([replace(w) for w in windows],
                                   breaker_cooldown_s=2e-4)
                if windows else None)
    report = run_scenario(replace(scenario, trace_path=trace_path),
                          fault_injector=injector)
    if trace_path is None:
        return report, None
    with open(trace_path, "rb") as handle:
        return report, handle.read()


#: A traced open-loop run in which no request arrives (shrunk from a
#: generated case): one event, and a trace of metadata only.
_NO_TRAFFIC = (ClusterScenario(
    servers=1, channels=1, threads=1, ulp="deflate", placement="cpu",
    message_bytes=16384, mode="open", connections=1, think_s=0.0,
    arrival="poisson", base_s=2e-4, burst_s=2e-4, scheduler="static",
    dsa_bytes_per_sec=None, duration_s=1.2e-3, warmup_s=0.0, seed=8),
    [], True)


@settings(max_examples=100, deadline=None)
@given(case=_scenarios())
@example(case=_NO_TRAFFIC)
def test_stage_chain_matches_generator_oracle(case):
    scenario, windows, traced = case
    with tempfile.TemporaryDirectory() as directory:
        paths = [os.path.join(directory, name) if traced else None
                 for name in ("chain.json", "oracle.json")]
        chain, chain_trace = _run(scenario, windows, paths[0])
        with pytest.MonkeyPatch.context() as patch:
            install_oracle(patch)
            oracle, oracle_trace = _run(scenario, windows, paths[1])
    assert chain.events_processed == oracle.events_processed
    assert chain.to_json() == oracle.to_json()
    assert chain_trace == oracle_trace
    if traced and chain.completed > 0:
        # A completed request traced its cpu and tx stages as spans.
        assert b'"ph": "X"' in chain_trace
