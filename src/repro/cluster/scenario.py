"""Scenario configuration, the run loop, and the cluster report.

A :class:`FleetScenario` holds what every fleet runner reads — rack
shape, placement, overload and QoS knobs, run window, seed — and builds
the overload and QoS policies.  A :class:`ClusterScenario` adds the
request/response load, scheduler, trace path and tier, and
:func:`run_scenario` turns it into a :class:`ClusterReport`: throughput,
p50/p99/p999 latency, per-channel DSA utilisation, spill counts, and
(optionally) a Chrome-trace file for ``about:tracing``.

Reports are rendered deterministically: no wall-clock values, floats
formatted from the same arithmetic every run, JSON serialised with sorted
keys.  Identical seeds ⇒ byte-identical ``to_json()`` output (enforced by
``tests/cluster/test_determinism.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.server import Placement, Ulp

from repro.cluster.fleet import Fleet, ServiceProfile
from repro.cluster.kernel import Simulator
from repro.cluster.loadgen import (
    BurstyArrivals,
    ClosedLoopLoad,
    OpenLoopLoad,
    PoissonArrivals,
    RequestMix,
)
from repro.cluster.metrics import MetricsRegistry, TraceRecorder
from repro.cluster.sched import AdaptiveSpillScheduler, make_scheduler
from repro.overload.policy import OverloadConfig, OverloadPolicy


@dataclass
class FleetScenario:
    """What every fleet runner reads: the rack, the placement, the
    connections' think time, the scheduler's spill factor, the DSA rate,
    the overload and QoS knobs, the run window and the seed.

    :class:`ClusterScenario` (request/response traffic, this module) and
    :class:`repro.replication.scenario.ReplicationScenario` (replicated
    storage) each add the knobs only their own runner reads.
    """

    # fleet shape
    servers: int = 4
    channels: int = 6
    threads: int = 10
    placement: str = "smartdimm"
    think_s: float = 0.0
    spill_factor: float = 1.0
    dsa_bytes_per_sec: float = None  # None -> channel-bandwidth DSA (paper)
    # overload control (all off by default; see repro.overload)
    deadline_s: float = None  # per-request relative deadline
    shed_expired: bool = True  # False: deadlines measured, never enforced
    admission: str = "none"  # "none" | "codel" (target deadline_s / 5)
    dsa_queue_limit: int = None  # bounded DSA queues (per channel)
    cpu_queue_limit: int = None  # bounded worker queues (per server)
    brownout_factor: float = 1.0  # <1: degrade DSA stage under pressure
    # multi-tenant QoS (see repro.qos): tenants is a list of TenantSpec;
    # empty/None keeps the single-tenant FIFO fleet byte-identical
    tenants: list = None
    qos_mode: str = "drr"  # "drr" | "fifo" (fifo: tagged but unarbitrated)
    qos_isolate: bool = True  # False: shared CoDel/brownout (contrast arm)
    # run control
    duration_s: float = 0.02
    warmup_s: float = 0.005
    seed: int = 1

    def build_overload(self) -> OverloadPolicy:
        """The scenario's overload policy, or None when every knob is off
        (the pre-overload fast path: zero behaviour change).  With tenants
        configured, the policy is per-tenant (class deadlines, isolated
        CoDel/brownout state)."""
        config = OverloadConfig(
            deadline_s=self.deadline_s,
            shed_expired=self.shed_expired,
            admission=self.admission,
            dsa_queue_limit=self.dsa_queue_limit,
            cpu_queue_limit=self.cpu_queue_limit,
            brownout_factor=self.brownout_factor,
        )
        if not config.enabled:
            return None
        return OverloadPolicy(
            config, [spec.name for spec in self.tenants or ()],
            isolate=self.qos_isolate)

    def build_qos(self):
        """The scenario's :class:`repro.qos.tenants.QosPolicy`, or None
        when no tenants are configured (single-tenant FIFO fleet)."""
        if not self.tenants:
            return None
        from repro.qos.tenants import QosPolicy

        return QosPolicy(self.tenants, mode=self.qos_mode)


@dataclass
class ClusterScenario(FleetScenario):
    """One rack-scale request/response experiment, fully specified (and
    fully seeded): the fleet knobs plus the request load, the scheduler,
    the trace path and the fidelity tier."""

    # request shape
    ulp: str = "tls"
    message_bytes: int = 16384
    mix: RequestMix = None  # overrides message_bytes when given
    # load discipline
    mode: str = "closed"  # "closed" | "open"
    connections: int = 512
    arrival: str = "poisson"  # open loop: "poisson" | "bursty"
    rate_rps: float = None  # None -> 70% of the fixed-point capacity
    burst_rps: float = None  # None -> 1.4x capacity
    base_s: float = 0.01
    burst_s: float = 0.005
    scheduler: str = AdaptiveSpillScheduler.name
    trace_path: str = None
    # fidelity tier: "event" (DES kernel) | "vector" (batched-epoch columns)
    tier: str = "event"
    epoch_s: float = None  # vector tier epoch length; None -> duration / 50
    # vector-tier open-loop arrivals: "replay" consumes the RNG draw-for-draw
    # like the event tier (crosscheckable); "batch" generates the same
    # process with bulk numpy draws (fast, statistically equivalent)
    arrival_stream: str = "replay"

    def resolved_mix(self) -> RequestMix:
        """The explicit mix, or a single-size mix of `message_bytes`."""
        return self.mix if self.mix is not None else RequestMix.fixed(self.message_bytes)

    def build_profile(self) -> ServiceProfile:
        """Price this scenario's routes via the analytic server model."""
        return ServiceProfile(
            Ulp(self.ulp),
            Placement(self.placement),
            mean_message_bytes=self.resolved_mix().mean_size,
            threads=self.threads,
            connections=self.connections,
            channels_per_server=self.channels,
            dsa_bytes_per_sec=self.dsa_bytes_per_sec,
        )


#: Windows the measured interval's per-channel utilisation timeline is
#: split into (``ClusterReport.channel_util_timeline``, both tiers).
TIMELINE_WINDOWS = 10


@dataclass
class ClusterReport:
    """What a scenario run measured (deterministic; no wall-clock values)."""

    scenario: dict
    rps: float
    completed: int
    submitted: int
    spilled: int
    dsa_served: int
    bytes_out: int
    latency: dict  # LogHistogram.summary(), seconds
    wait_cpu: dict
    wait_dsa: dict
    channel_utilisation: list  # [server][channel] busy fraction
    cpu_utilisation: list  # [server]
    channel_util_timeline: list  # [server][channel][window]
    model_rps_per_server: float
    model_bottleneck: str
    events_processed: int
    chaos: dict = None  # FleetFaultInjector.report() when chaos was injected
    overload: dict = None  # Fleet.overload_report() when control was enabled
    qos: dict = None  # Fleet.qos_report() when tenants were configured

    @property
    def spill_fraction(self) -> float:
        return self.spilled / self.submitted if self.submitted else 0.0

    def to_dict(self) -> dict:
        """The full report as plain JSON-serialisable types."""
        out = {
            "scenario": self.scenario,
            "rps": self.rps,
            "completed": self.completed,
            "submitted": self.submitted,
            "spilled": self.spilled,
            "dsa_served": self.dsa_served,
            "bytes_out": self.bytes_out,
            "latency_s": self.latency,
            "wait_cpu_s": self.wait_cpu,
            "wait_dsa_s": self.wait_dsa,
            "channel_utilisation": self.channel_utilisation,
            "cpu_utilisation": self.cpu_utilisation,
            "channel_util_timeline": self.channel_util_timeline,
            "model_rps_per_server": self.model_rps_per_server,
            "model_bottleneck": self.model_bottleneck,
            "events_processed": self.events_processed,
        }
        if self.chaos is not None:
            out["chaos"] = self.chaos
        if self.overload is not None:
            out["overload"] = self.overload
        if self.qos is not None:
            out["qos"] = self.qos
        return out

    def to_json(self) -> str:
        """Deterministic (sorted-keys) JSON rendering of the report."""
        import json

        return json.dumps(self.to_dict(), sort_keys=True)

    # -- rendering ------------------------------------------------------------------

    @staticmethod
    def _us(seconds) -> str:
        return "n/a" if seconds is None else "%.1fus" % (seconds * 1e6)

    def table(self) -> str:
        """Human-readable multi-line summary for the CLI."""
        s = self.scenario
        lines = []
        lines.append(
            "cluster: %d servers x %d channels (%d threads/server), "
            "ulp=%s placement=%s sched=%s seed=%d"
            % (s["servers"], s["channels"], s["threads"], s["ulp"],
               s["placement"], s["scheduler"], s["seed"])
        )
        if s["mode"] == "closed":
            lines.append(
                "load: closed loop, %d connections, think %s"
                % (s["connections"], self._us(s["think_s"]))
            )
        else:
            lines.append("load: open loop, %s arrivals" % s["arrival"])
        window_ms = (s["duration_s"] - s["warmup_s"]) * 1e3
        lines.append(
            "window: %.1fms measured after %.1fms warmup, %d events"
            % (window_ms, s["warmup_s"] * 1e3, self.events_processed)
        )
        fleet_model = self.model_rps_per_server * s["servers"]
        deviation = (
            100.0 * (self.rps - fleet_model) / fleet_model if fleet_model else 0.0
        )
        lines.append(
            "throughput: %s req/s (analytic fixed point: %s, %+.1f%%; "
            "model bottleneck: %s)"
            % (_si(self.rps), _si(fleet_model), deviation, self.model_bottleneck)
        )
        lat = self.latency
        lines.append(
            "latency: p50=%s p99=%s p999=%s mean=%s max=%s (%d requests)"
            % (self._us(lat["p50"]), self._us(lat["p99"]), self._us(lat["p999"]),
               self._us(lat["mean"]), self._us(lat["max"]), lat["count"])
        )
        lines.append(
            "spill: %d of %d requests (%.1f%%) onloaded to CPU; "
            "%d served by DSAs"
            % (self.spilled, self.submitted, 100.0 * self.spill_fraction,
               self.dsa_served)
        )
        lines.append("per-channel DSA utilisation:")
        for index, channels in enumerate(self.channel_utilisation):
            lines.append(
                "  server%d: %s   (cpu %.0f%%)"
                % (index, " ".join("%.2f" % u for u in channels),
                   100.0 * self.cpu_utilisation[index])
            )
        return "\n".join(lines)


def _si(value: float) -> str:
    """1234567 -> '1.23M' (deterministic float formatting)."""
    for threshold, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if value >= threshold:
            return "%.2f%s" % (value / threshold, suffix)
    return "%.0f" % value


def _build_arrivals(scenario: ClusterScenario, capacity_rps: float):
    if scenario.arrival == "poisson":
        rate = scenario.rate_rps or 0.7 * capacity_rps
        return PoissonArrivals(rate)
    if scenario.arrival == "bursty":
        base = scenario.rate_rps or 0.5 * capacity_rps
        burst = scenario.burst_rps or 1.4 * capacity_rps
        return BurstyArrivals(base, burst, scenario.base_s, scenario.burst_s)
    raise ValueError("unknown arrival process %r" % scenario.arrival)


def run_scenario(scenario: ClusterScenario, fault_injector=None,
                 registry: MetricsRegistry = None) -> ClusterReport:
    """Simulate one scenario and report its telemetry.

    `fault_injector` (a :class:`repro.cluster.chaos.FleetFaultInjector`)
    layers scheduled node failures and channel wedges onto the run; the
    resulting MTTR/availability/goodput accounting lands in
    :attr:`ClusterReport.chaos`.

    `registry` (optional) receives the run's raw instruments — callers
    that need bucket-level histograms (the tier crosscheck) pass one in;
    the report itself only carries summaries.

    ``scenario.tier == "vector"`` dispatches to the batched-epoch fleet
    tier (:func:`repro.cluster.vector.run_vector_scenario`); chaos there
    takes fault *windows*, not an injector.  Replicated storage has its
    own scenario type and runner
    (:func:`repro.replication.scenario.run_replication`).
    """
    if scenario.tier == "vector":
        if fault_injector is not None:
            raise ValueError(
                "the vector tier takes fault windows, not an injector: call "
                "run_vector_scenario(scenario, fault_windows=...) directly")
        if scenario.tenants:
            raise ValueError(
                "the vector tier has no per-tenant arbitration yet: "
                "run multi-tenant scenarios on tier='event'")
        from repro.cluster.vector import run_vector_scenario

        return run_vector_scenario(scenario, registry=registry)
    if scenario.tier != "event":
        raise ValueError("tier must be 'event' or 'vector'")
    if min(scenario.servers, scenario.channels, scenario.threads) < 1:
        raise ValueError("servers, channels, and threads must all be >= 1")
    if scenario.warmup_s >= scenario.duration_s:
        raise ValueError("warmup must be shorter than the run")
    sim = Simulator(scenario.seed)
    profile = scenario.build_profile()
    registry = registry if registry is not None else MetricsRegistry()
    recorder = TraceRecorder() if scenario.trace_path else None
    kwargs = (
        {"spill_factor": scenario.spill_factor}
        if scenario.scheduler == AdaptiveSpillScheduler.name
        else {}
    )
    policy = make_scheduler(scenario.scheduler, rng=sim.fork_rng("sched"), **kwargs)
    overload_policy = scenario.build_overload()
    qos_policy = scenario.build_qos()
    fleet = Fleet(
        sim, profile, policy,
        servers=scenario.servers, channels=scenario.channels,
        registry=registry, trace=recorder, overload=overload_policy,
        qos=qos_policy,
    )
    if fault_injector is not None:
        fault_injector.attach(sim, fleet)
    mix = scenario.resolved_mix()
    capacity = profile.model_metrics.rps * scenario.servers
    if qos_policy is not None:
        # One load generator per tenant, each with its own RNG stream
        # ("loadgen.<name>") and a disjoint request-id block (the static
        # scheduler hashes ids).  Rates resolve against the tenant's
        # weight-proportional share of fleet capacity unless absolute.
        loads = []
        for index, name in enumerate(qos_policy.order):
            spec = qos_policy.specs[name]
            id_start = (index + 1) << 24
            if spec.connections > 0:
                loads.append(ClosedLoopLoad(
                    sim, fleet, mix, spec.connections,
                    think_s=scenario.think_s, tenant=name, klass=spec.klass,
                    id_start=id_start))
            else:
                rate = spec.rate_rps if spec.rate_rps is not None else \
                    spec.load_factor * qos_policy.fair_share(name) * capacity
                loads.append(OpenLoopLoad(
                    sim, fleet, mix, PoissonArrivals(rate),
                    tenant=name, klass=spec.klass, id_start=id_start))
    elif scenario.mode == "closed":
        loads = [ClosedLoopLoad(
            sim, fleet, mix, scenario.connections, think_s=scenario.think_s)]
    elif scenario.mode == "open":
        loads = [OpenLoopLoad(sim, fleet, mix,
                              _build_arrivals(scenario, capacity))]
    else:
        raise ValueError("mode must be 'closed' or 'open'")

    fleet.measuring = scenario.warmup_s <= 0.0
    if scenario.warmup_s > 0.0:
        sim.schedule(scenario.warmup_s, lambda _: fleet.begin_measurement())
    for load in loads:
        load.start()
    sim.run(until=scenario.duration_s)

    window = scenario.duration_s - scenario.warmup_s
    timelines = [
        [
            registry.timeline("server%d.ch%d.util" % (s, c)).window_averages(
                scenario.warmup_s, scenario.duration_s, TIMELINE_WINDOWS)
            for c in range(scenario.channels)
        ]
        for s in range(scenario.servers)
    ]
    scenario_dict = {
        "servers": scenario.servers,
        "channels": scenario.channels,
        "threads": scenario.threads,
        "ulp": scenario.ulp,
        "placement": profile.placement.value,
        "mode": scenario.mode,
        "arrival": scenario.arrival,
        "connections": scenario.connections,
        "think_s": scenario.think_s,
        "scheduler": scenario.scheduler,
        "duration_s": scenario.duration_s,
        "warmup_s": scenario.warmup_s,
        "seed": scenario.seed,
        "tier": "event",
    }
    if qos_policy is not None:
        scenario_dict["qos_mode"] = qos_policy.mode
        scenario_dict["tenants"] = list(qos_policy.order)
    report = ClusterReport(
        scenario=scenario_dict,
        rps=fleet.completed.value / window,
        completed=fleet.completed.value,
        submitted=fleet.submitted.value,
        spilled=fleet.spilled.value,
        dsa_served=fleet.dsa_served.value,
        bytes_out=fleet.bytes_out.value,
        latency=fleet.latency.summary(),
        wait_cpu=fleet.wait_cpu.summary(),
        wait_dsa=fleet.wait_dsa.summary(),
        channel_utilisation=fleet.channel_utilisations(scenario.warmup_s),
        cpu_utilisation=fleet.cpu_utilisations(scenario.warmup_s),
        channel_util_timeline=timelines,
        model_rps_per_server=profile.model_metrics.rps,
        model_bottleneck=profile.model_metrics.bottleneck,
        events_processed=sim.events_processed,
        chaos=(
            fault_injector.report(
                scenario.warmup_s, scenario.duration_s,
                scenario.servers, scenario.channels)
            if fault_injector is not None else None
        ),
        overload=(
            fleet.overload_report(window)
            if overload_policy is not None else None
        ),
        qos=(
            fleet.qos_report(window)
            if qos_policy is not None else None
        ),
    )
    if recorder is not None:
        recorder.write(scenario.trace_path)
    return report
