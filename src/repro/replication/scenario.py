"""Replicated-storage scenarios: config, run loop, and report.

:class:`ReplicationScenario` extends :class:`~repro.cluster.scenario.
FleetScenario` (the rack, placement, overload/QoS knobs, run window and
seed every fleet runner reads) with the replicated-store knobs
(protocol, replica count, client count, key space, read/write mix, value
size, hop timeout, retry budget) and
:func:`run_replication` drives it: closed-loop clients issue versioned
get/put operations against a :class:`~repro.replication.protocol.
ReplicationGroup`, whose per-hop messages ride the cluster fleet under a
:class:`~repro.cluster.sched.TargetedScheduler` with composite
compress+encrypt hop pricing from :class:`~repro.replication.hopcost.
ReplicationHopProfile`.  The same :class:`~repro.cluster.chaos.
FleetFaultInjector` chaos machinery applies, and the run ends with the
:class:`~repro.replication.checker.ConsistencyChecker` audit.

The :class:`ReplicationReport` carries the PR's headline metrics per
placement: operation throughput and latency, goodput inside vs outside
fault windows, per-fault failover latency (fault onset to the first
completed operation that had to work around the dead replica), quorum
retry amplification, and the consistency audit.  Reports follow the repo
determinism contract: identical seeds => byte-identical ``to_json()``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.overload.retry import RetryBudget

from repro.cluster.fleet import Fleet
from repro.cluster.kernel import Simulator
from repro.cluster.metrics import MetricsRegistry
from repro.cluster.scenario import FleetScenario, _si
from repro.cluster.sched import TargetedScheduler
from repro.replication.checker import ConsistencyChecker
from repro.replication.hopcost import ReplicationHopProfile
from repro.replication.protocol import PROTOCOLS, ReplicationGroup


@dataclass
class ReplicationScenario(FleetScenario):
    """One replicated-storage experiment, fully specified and seeded."""

    protocol: str = "abd"  # "abd" | "chain"
    replicas: int = 3
    clients: int = 8
    keys: int = 16
    write_fraction: float = 0.5
    value_bytes: int = 16384
    meta_bytes: int = 128  # ABD phase-1 version-query payload
    hop_timeout_s: float = 1e-3  # failure-detection latency per dead hop
    retry_capacity: float = 16.0
    retry_refill: float = 0.5


@dataclass
class ReplicationReport:
    """What a replication run measured (deterministic, no wall clock)."""

    scenario: dict
    ops_per_s: float
    ops: dict  # ReplicationGroup.summary()
    consistency: dict  # ConsistencyChecker.summary()
    latency_read: dict  # LogHistogram.summary(), seconds, post-warmup
    latency_write: dict
    goodput: dict  # in-fault vs clear operation rates
    failover: list  # per node_down window: onset -> first worked-around op
    fleet: dict  # hop-level fleet telemetry
    model_rps_per_server: float
    model_bottleneck: str
    events_processed: int
    chaos: dict = None
    overload: dict = None

    def to_dict(self) -> dict:
        """The full report as plain JSON-serialisable types."""
        out = {
            "scenario": self.scenario,
            "ops_per_s": self.ops_per_s,
            "ops": self.ops,
            "consistency": self.consistency,
            "latency_read_s": self.latency_read,
            "latency_write_s": self.latency_write,
            "goodput": self.goodput,
            "failover": self.failover,
            "fleet": self.fleet,
            "model_rps_per_server": self.model_rps_per_server,
            "model_bottleneck": self.model_bottleneck,
            "events_processed": self.events_processed,
        }
        if self.chaos is not None:
            out["chaos"] = self.chaos
        if self.overload is not None:
            out["overload"] = self.overload
        return out

    def to_json(self) -> str:
        """Deterministic (sorted-keys) JSON rendering of the report."""
        import json

        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def _us(seconds) -> str:
        return "n/a" if seconds is None else "%.1fus" % (seconds * 1e6)

    def table(self) -> str:
        """Human-readable multi-line summary for the CLI."""
        s = self.scenario
        o = self.ops
        c = self.consistency
        lines = []
        lines.append(
            "replication: %s over %d replicas (quorum %d), %d clients, "
            "%d keys, %.0f%% writes, %dB values, placement=%s seed=%d"
            % (s["protocol"], s["replicas"], o["quorum"], s["clients"],
               s["keys"], 100.0 * s["write_fraction"], s["value_bytes"],
               s["placement"], s["seed"]))
        lines.append(
            "fleet: %d servers x %d channels (%d threads/server), "
            "sched=%s, hop bottleneck: %s"
            % (s["servers"], s["channels"], s["threads"], s["scheduler"],
               self.model_bottleneck))
        lines.append(
            "ops: %s op/s measured; %d ok (%d reads, %d writes), "
            "%d failed, retry amplification %.3f"
            % (_si(self.ops_per_s), o["ops_ok"], o["reads_ok"],
               o["writes_ok"], o["ops_failed"], o["retry_amplification"]))
        lines.append(
            "hops: %d sent, %d ok, %d failed (%d timeouts, %d rejected), "
            "%d quorum shortfalls"
            % (o["hops_sent"], o["hops_ok"], o["hops_failed"],
               o["hop_timeouts"], o["hop_rejected"], o["quorum_shortfalls"]))
        read, write = self.latency_read, self.latency_write
        lines.append(
            "read latency: p50=%s p99=%s max=%s (%d ops); "
            "write latency: p50=%s p99=%s max=%s (%d ops)"
            % (self._us(read["p50"]), self._us(read["p99"]),
               self._us(read["max"]), read["count"],
               self._us(write["p50"]), self._us(write["p99"]),
               self._us(write["max"]), write["count"]))
        if self.goodput["fault_seconds"] > 0.0:
            lines.append(
                "goodput: %s op/s inside fault windows (%.1fms), "
                "%s op/s clear"
                % (_si(self.goodput["fault_rps"]),
                   1e3 * self.goodput["fault_seconds"],
                   _si(self.goodput["clear_rps"])))
        for event in self.failover:
            latency = event["latency_s"]
            lines.append(
                "failover: server %d down at %.1fms -> first worked-around "
                "op at %s"
                % (event["server"], 1e3 * event["start_s"],
                   "never" if latency is None else "+%s" % self._us(latency)))
        lines.append(
            "consistency: %d ops audited, %d violations%s"
            % (c["ops_recorded"], c["violation_count"],
               "" if not c["violation_count"] else
               " <- " + "; ".join(v["rule"] for v in c["violations"])))
        return "\n".join(lines)


def run_replication(scenario: ReplicationScenario,
                    fault_injector=None) -> ReplicationReport:
    """Simulate one replicated-storage scenario and audit its history.

    `fault_injector` layers node_down/channel_wedge windows onto the run;
    node_down windows additionally produce the per-fault failover-latency
    entries in the report.
    """
    if scenario.protocol not in PROTOCOLS:
        raise ValueError("protocol must be one of %r" % (PROTOCOLS,))
    if not 1 <= scenario.replicas <= scenario.servers:
        raise ValueError("need 1 <= replicas <= servers")
    if scenario.clients < 1 or scenario.keys < 1:
        raise ValueError("clients and keys must be >= 1")
    if not 0.0 <= scenario.write_fraction <= 1.0:
        raise ValueError("write_fraction must be in [0, 1]")
    if scenario.warmup_s >= scenario.duration_s:
        raise ValueError("warmup must be shorter than the run")

    sim = Simulator(scenario.seed)
    profile = ReplicationHopProfile(
        scenario.placement, mean_value_bytes=scenario.value_bytes,
        threads=scenario.threads, connections=scenario.clients,
        channels_per_server=scenario.channels,
        dsa_bytes_per_sec=scenario.dsa_bytes_per_sec)
    registry = MetricsRegistry()
    policy = TargetedScheduler(rng=sim.fork_rng("sched"),
                               spill_factor=scenario.spill_factor)
    overload_policy = scenario.build_overload()
    fleet = Fleet(
        sim, profile, policy,
        servers=scenario.servers, channels=scenario.channels,
        registry=registry, overload=overload_policy,
        qos=scenario.build_qos())
    if fault_injector is not None:
        fault_injector.attach(sim, fleet)
    checker = ConsistencyChecker()
    budget = RetryBudget(capacity=scenario.retry_capacity,
                         refill_per_success=scenario.retry_refill,
                         seed=scenario.seed)
    group = ReplicationGroup(
        sim, fleet, replicas=range(scenario.replicas),
        protocol=scenario.protocol, value_bytes=scenario.value_bytes,
        meta_bytes=scenario.meta_bytes, hop_timeout_s=scenario.hop_timeout_s,
        retry_budget=budget, checker=checker)
    read_hist = registry.histogram("op.read")
    write_hist = registry.histogram("op.write")
    state = {"next_value": 0, "measured_ok": 0}

    def client(cid: int):
        rng = sim.fork_rng("replication.client%d" % cid)
        while True:
            key = rng.randrange(scenario.keys)
            if rng.random() < scenario.write_fraction:
                state["next_value"] += 1
                record = yield from group.write_op(cid, key,
                                                  state["next_value"])
                hist = write_hist
            else:
                record = yield from group.read_op(cid, key)
                hist = read_hist
            if record.ok and record.end_s >= scenario.warmup_s:
                state["measured_ok"] += 1
                hist.record(record.end_s - record.start_s)
            if not record.ok:
                # Failed-op pacing: with the retry budget drained and no
                # quorum, ops fail without consuming simulated time; a
                # real client backs off before trying again (and without
                # this, a closed loop would spin at one sim instant).
                yield scenario.hop_timeout_s
            if scenario.think_s > 0.0:
                yield scenario.think_s

    fleet.measuring = scenario.warmup_s <= 0.0
    if scenario.warmup_s > 0.0:
        sim.schedule(scenario.warmup_s, lambda _: fleet.begin_measurement())
    for cid in range(scenario.clients):
        sim.spawn(client(cid))
    sim.run(until=scenario.duration_s)

    window = scenario.duration_s - scenario.warmup_s
    windows = fault_injector.windows if fault_injector is not None else []
    goodput = _goodput(checker.ops, windows,
                       scenario.warmup_s, scenario.duration_s)
    failover = _failover(group.completions, windows)
    report = ReplicationReport(
        scenario={
            "servers": scenario.servers,
            "channels": scenario.channels,
            "threads": scenario.threads,
            "placement": profile.placement.value,
            "scheduler": policy.name,
            "protocol": scenario.protocol,
            "replicas": scenario.replicas,
            "clients": scenario.clients,
            "keys": scenario.keys,
            "write_fraction": scenario.write_fraction,
            "value_bytes": scenario.value_bytes,
            "meta_bytes": scenario.meta_bytes,
            "hop_timeout_s": scenario.hop_timeout_s,
            "duration_s": scenario.duration_s,
            "warmup_s": scenario.warmup_s,
            "seed": scenario.seed,
        },
        ops_per_s=state["measured_ok"] / window,
        ops=group.summary(),
        consistency=checker.summary(),
        latency_read=read_hist.summary(),
        latency_write=write_hist.summary(),
        goodput=goodput,
        failover=failover,
        fleet={
            "hops_completed": fleet.completed.value,
            "hops_submitted": fleet.submitted.value,
            "spilled": fleet.spilled.value,
            "dsa_served": fleet.dsa_served.value,
            "bytes_out": fleet.bytes_out.value,
            "hop_latency_s": fleet.latency.summary(),
        },
        model_rps_per_server=profile.model_metrics.rps,
        model_bottleneck=profile.model_metrics.bottleneck,
        events_processed=sim.events_processed,
        chaos=(
            fault_injector.report(
                scenario.warmup_s, scenario.duration_s,
                scenario.servers, scenario.channels)
            if fault_injector is not None else None),
        overload=(
            fleet.overload_report(window)
            if overload_policy is not None else None),
    )
    return report


def _goodput(ops, windows, lo: float, hi: float) -> dict:
    """Completed-operation rates inside vs outside fault windows.

    Interval arithmetic reuses the injector's union helper so overlapping
    windows are not double-counted; operations are attributed by their
    completion stamp, matching the chaos report's request-level metric.
    """
    from repro.cluster.chaos import FleetFaultInjector

    intervals = [(w.start_s, w.end_s) for w in windows]
    fault_seconds = FleetFaultInjector._union_seconds(intervals, lo, hi)
    clear_seconds = max(0.0, (hi - lo) - fault_seconds)

    def in_fault(t: float) -> bool:
        return any(w.start_s <= t < w.end_s for w in windows)

    fault_ops = 0
    clear_ops = 0
    for op in ops:
        if not op.ok or not lo <= op.end_s < hi:
            continue
        if in_fault(op.end_s):
            fault_ops += 1
        else:
            clear_ops += 1
    return {
        "fault_ops": fault_ops,
        "clear_ops": clear_ops,
        "fault_seconds": fault_seconds,
        "clear_seconds": clear_seconds,
        "fault_rps": fault_ops / fault_seconds if fault_seconds else 0.0,
        "clear_rps": clear_ops / clear_seconds if clear_seconds else 0.0,
    }


def _failover(completions, windows) -> list:
    """Per node_down window: fault onset to the first completed operation
    that had to work around the dead replica (its protocol-level
    ``unavailable`` set contains the window's server)."""
    events = []
    for w in windows:
        if w.kind != "node_down":
            continue
        first = None
        for t, unavailable in completions:
            if t >= w.start_s and w.server in unavailable:
                first = t
                break
        events.append({
            "server": w.server,
            "start_s": w.start_s,
            "first_ok_s": first,
            "latency_s": None if first is None else first - w.start_s,
        })
    return events
