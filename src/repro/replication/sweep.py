"""The placement sweep behind the ``replication`` matrix target.

Runs the same replicated-storage workload — 3-replica group on a 3-server
rack, 16 KB values, 50/50 read/write, closed-loop clients, a ``node_down``
window on a replica plus a ``channel_wedge`` on another — once per ULP
placement (``smartdimm``, ``cpu``, ``quickassist``) and per protocol
(``abd``, ``chain``), and distills the PR's headline comparison:

* **goodput under fault** — completed operations per second inside the
  fault windows, the metric the target's gate compares across
  placements (SmartDIMM must beat CPU onload at 16 KB values);
* **failover latency** — fault onset to the first operation that
  completed by working around the dead replica;
* **retry amplification** — (ops + protocol retries) / ops, which the
  shared :class:`~repro.overload.retry.RetryBudget` keeps bounded;
* **consistency** — the checker's violation count, which must be zero
  everywhere.

Every run is seeded; the payload committed as ``BENCH_replication.json``
is byte-identical across runs with the same seed.  Run it with
``python -m repro matrix --only replication [--quick|--check|--update]``;
``python -m repro replicate`` runs one scenario of it with chosen
parameters.
"""

from __future__ import annotations

from repro.cluster.chaos import FaultWindow, FleetFaultInjector
from repro.replication.scenario import ReplicationScenario, run_replication

#: The placements the sweep compares (SmartNIC cannot run DEFLATE).
PLACEMENTS = ("smartdimm", "cpu", "quickassist")

#: Protocols swept; the gate reads the ABD rows.
SWEEP_PROTOCOLS = ("abd", "chain")

#: Value size of every sweep point.
VALUE_BYTES = 16384


def replication_scenario(placement: str, protocol: str, seed: int,
                         value_bytes: int = VALUE_BYTES,
                         duration_s: float = 0.03,
                         warmup_s: float = 0.005) -> ReplicationScenario:
    """One sweep point: 3 replicas on a 3-server rack, 8 closed-loop
    clients, 50/50 reads and writes over 16 keys."""
    return ReplicationScenario(
        servers=3, channels=4, threads=8,
        placement=placement, protocol=protocol,
        replicas=3, clients=8, keys=16, write_fraction=0.5,
        value_bytes=value_bytes,
        duration_s=duration_s, warmup_s=warmup_s, seed=seed,
    )


def standard_windows(duration_s: float, warmup_s: float) -> list:
    """The sweep's chaos schedule: replica 1 dies for the middle third of
    the measured window, and one of replica 0's DSA channels wedges while
    the node is down (failover traffic meets a degraded accelerator)."""
    measured = duration_s - warmup_s
    return [
        FaultWindow(kind="node_down", server=1,
                    start_s=warmup_s + measured / 3.0,
                    duration_s=measured / 3.0),
        FaultWindow(kind="channel_wedge", server=0, channel=0,
                    start_s=warmup_s + 0.4 * measured,
                    duration_s=0.2 * measured, dsa_slowdown=50.0),
    ]


def _point(report) -> dict:
    """The per-(placement, protocol) row the bench file stores."""
    failover = [e["latency_s"] for e in report.failover]
    return {
        "ops_per_s": report.ops_per_s,
        "goodput_fault_rps": report.goodput["fault_rps"],
        "goodput_clear_rps": report.goodput["clear_rps"],
        "failover_latency_s": failover[0] if failover else None,
        "retry_amplification": report.ops["retry_amplification"],
        "op_retries": report.ops["op_retries"],
        "hops_sent": report.ops["hops_sent"],
        "hop_timeouts": report.ops["hop_timeouts"],
        "read_p99_s": report.latency_read["p99"],
        "write_p99_s": report.latency_write["p99"],
        "violations": report.consistency["violation_count"],
        "availability": (report.chaos or {}).get("availability"),
        "model_bottleneck": report.model_bottleneck,
    }


def run_sweep_point(protocol: str, placement: str, seed: int,
                    duration_s: float, warmup_s: float) -> dict:
    """One (protocol, placement) row under the sweep's chaos schedule,
    pure: arguments in, result dict out."""
    scenario = replication_scenario(placement, protocol, seed,
                                    duration_s=duration_s, warmup_s=warmup_s)
    injector = FleetFaultInjector(standard_windows(duration_s, warmup_s))
    return _point(run_replication(scenario, fault_injector=injector))


# -- experiment-matrix points --------------------------------------------------------


def matrix_points(seed: int, quick: bool) -> dict:
    """This sweep's matrix points, ``{label: (function, kwargs)}``."""
    window = {"duration_s": 0.012 if quick else 0.03,
              "warmup_s": 0.002 if quick else 0.005}
    return {"%s/%s" % (protocol, placement): (run_sweep_point, dict(
                window, protocol=protocol, placement=placement, seed=seed))
            for protocol in SWEEP_PROTOCOLS for placement in PLACEMENTS}


def rollup(results: dict, seed: int, quick: bool) -> dict:
    """Per-instance results -> the complete CLI/BENCH payload."""
    protocols = {
        protocol: {placement: results["%s/%s" % (protocol, placement)]
                   for placement in PLACEMENTS}
        for protocol in SWEEP_PROTOCOLS
    }
    abd = protocols["abd"]
    total_violations = sum(
        point["violations"]
        for placements in protocols.values()
        for point in placements.values())
    summary = {
        "value_bytes": VALUE_BYTES,
        "total_violations": total_violations,
        # The acceptance ratio the replication target gates on: SmartDIMM
        # hop acceleration must translate into more completed operations
        # per second *while the fault windows are active*.
        "smartdimm_over_cpu_goodput_fault": (
            abd["smartdimm"]["goodput_fault_rps"]
            / abd["cpu"]["goodput_fault_rps"]
            if abd["cpu"]["goodput_fault_rps"] else None),
        "smartdimm_over_cpu_ops": (
            abd["smartdimm"]["ops_per_s"] / abd["cpu"]["ops_per_s"]
            if abd["cpu"]["ops_per_s"] else None),
        "abd_smartdimm_goodput_fault_rps": abd["smartdimm"]["goodput_fault_rps"],
        "abd_smartdimm_failover_s": abd["smartdimm"]["failover_latency_s"],
        "abd_smartdimm_retry_amplification": abd["smartdimm"]["retry_amplification"],
        "chain_smartdimm_goodput_fault_rps": (
            protocols["chain"]["smartdimm"]["goodput_fault_rps"]),
    }
    return {
        "seed": seed,
        "quick": quick,
        "protocols": protocols,
        "summary": summary,
    }


def render(report: dict) -> str:
    """Human-readable CLI summary of the sweep."""
    lines = []
    summary = report["summary"]
    lines.append(
        "replication placement sweep (seed %d%s): 3 replicas, 16KB values, "
        "node_down + channel_wedge chaos"
        % (report["seed"], ", quick" if report["quick"] else ""))
    lines.append("  %-6s %-11s %10s %12s %12s %9s %7s %5s" % (
        "proto", "placement", "ops/s", "fault-gput", "clear-gput",
        "failover", "retry", "viol"))
    for protocol in sorted(report["protocols"]):
        for placement in PLACEMENTS:
            point = report["protocols"][protocol].get(placement)
            if point is None:
                continue
            failover = point["failover_latency_s"]
            lines.append("  %-6s %-11s %10.0f %12.0f %12.0f %9s %7.3f %5d" % (
                protocol, placement, point["ops_per_s"],
                point["goodput_fault_rps"], point["goodput_clear_rps"],
                "n/a" if failover is None else "%.0fus" % (failover * 1e6),
                point["retry_amplification"], point["violations"]))
    ratio = summary["smartdimm_over_cpu_goodput_fault"]
    lines.append(
        "  abd goodput under fault: smartdimm/cpu = %s; "
        "violations total: %d"
        % ("n/a" if ratio is None else "%.2fx" % ratio,
           summary["total_violations"]))
    return "\n".join(lines)
