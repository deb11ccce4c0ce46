"""The noisy-neighbor fairness sweep behind the ``qos`` matrix target.

One aggressive tenant against two well-behaved ones, on a DEFLATE-16KB
SmartDIMM rack with the full QoS stack (DRR stations, strict-priority
classes, per-tenant CoDel/brownout, per-tenant queue bounds).  Sections,
committed as ``BENCH_qos.json`` and run with
``python -m repro matrix --only qos [--quick|--check|--update]`` (the
target in :mod:`repro.exp.targets` owns the gate thresholds):

* **isolated** — each tenant alone at exactly the offered rate it will
  use in the shared runs: its no-interference baseline goodput.
* **attack** — all tenants together, the aggressor at
  :data:`AGGRESSOR_FACTOR` x its fair share.  The fairness gate: every
  victim keeps >= 85% of its isolated goodput while the aggressor is
  capped near its fair share of capacity.
* **attack_fifo** — the contrast arm: same tenants, FIFO stations and
  shared (non-isolated) overload state.  Shows what the DRR/isolation
  machinery buys; gated only to show the interference is real (the
  victim must lose goodput here).
* **attack_chaos** — the attack plus a ``node_down`` + ``channel_wedge``
  composition from :mod:`repro.cluster.chaos`: isolation must survive
  component failure too (victim goodput ratio gated against the same
  isolated baseline).
* **surge** — every tenant scaled so aggregate offered load is 2x fleet
  capacity: the latency class's p99 must stay under its deadline even
  though the rack as a whole is drowning (strict priority at work).
* **retry_isolation** — the hierarchical-budget micro: an aggressor
  tenant hammering a 100%-lossy QuickAssist through its child budget
  next to a victim with a mildly lossy card.  Gate: the victim's
  ``denied_parent == 0`` — the aggressor's storm never drained the
  shared pool out from under the victim.

Degraded-mode quality is reported per tenant: brownout serves DEFLATE at
a lower effort level, so the effective compression ratio worsens by
:data:`BROWNOUT_RATIO_PENALTY` on the browned-out fraction of traffic —
the "quality delta" the ISSUE's degraded-mode accounting asks for.

Determinism contract: identical seeds produce byte-identical payloads
(``tests/qos/test_qos_smoke.py``).
"""

from __future__ import annotations

from repro.cluster.chaos import FaultWindow, FleetFaultInjector
from repro.cluster.loadgen import measured_deflate_ratio
from repro.cluster.scenario import ClusterScenario, run_scenario
from repro.faults.plan import FaultPlan, FaultSite, FaultSpec
from repro.overload.retry import RetryBudget
from repro.qos.tenants import TenantSpec
from repro.workloads.corpus import CorpusKind

#: Aggressor offered load as a multiple of its fair share of capacity.
AGGRESSOR_FACTOR = 3.0

#: Well-behaved tenants' offered load as a multiple of their fair share.
VICTIM_FACTOR = 0.8

#: Fraction of fair-share capacity the aggressor may exceed before the
#: gate calls the cap broken (DRR work-conservation legitimately hands
#: idle victims' slack to the aggressor, so "near fair share" is judged
#: against what the victims left on the table, plus this tolerance).
AGGRESSOR_CAP_TOLERANCE = 1.25

#: Compressed/original ratio multiplier for browned-out DEFLATE service
#: (reduced match effort, same fixed-Huffman banked matcher).
BROWNOUT_RATIO_PENALTY = 1.15

#: Latency-class deadline as a multiple of one unloaded end-to-end
#: service time at the sweep's message size.
DEADLINE_SERVICE_MULTIPLE = 10.0

#: The rack and workload every section shares.
RACK = {
    "servers": 2, "channels": 4, "threads": 8,
    "ulp": "deflate", "placement": "smartdimm", "message_bytes": 16384,
    "mode": "open", "arrival": "poisson",
}

#: Overload-control knobs layered under the QoS policy.
CONTROL = {
    "shed_expired": True,
    "admission": "codel",
    "dsa_queue_limit": 16,
    "cpu_queue_limit": 64,
    "brownout_factor": 0.85,
}


def _probe() -> ClusterScenario:
    """A rate-free scenario used only for capacity/deadline derivation."""
    return ClusterScenario(duration_s=0.02, warmup_s=0.005, **RACK)


def fleet_capacity_rps() -> float:
    """The analytic fixed-point capacity of the sweep's rack."""
    probe = _probe()
    return probe.build_profile().model_metrics.rps * probe.servers


def derive_deadline_s() -> float:
    """~10x the unloaded end-to-end service time of one 16 KB request."""
    route = _probe().build_profile().route(RACK["message_bytes"])
    service = (route.cpu_seconds + route.mem_seconds + route.dsa_seconds
               + route.link_seconds)
    return DEADLINE_SERVICE_MULTIPLE * service


def tenant_rates(capacity: float) -> dict:
    """Absolute offered rate per tenant (rps).

    Computed against the *shared-run* fair shares (three equal-weight
    tenants -> 1/3 each) and passed to every section as absolute
    ``rate_rps`` so the isolated baselines drive the exact same load the
    shared runs do.
    """
    share = capacity / 3.0
    return {
        "victim": VICTIM_FACTOR * share,
        "steady": VICTIM_FACTOR * share,
        "aggressor": AGGRESSOR_FACTOR * share,
    }


def make_tenants(rates: dict, scale: float = 1.0) -> list:
    """The sweep's three tenants at `scale` x their section rates."""
    return [
        TenantSpec("victim", klass="latency", weight=1.0,
                   rate_rps=scale * rates["victim"]),
        TenantSpec("steady", klass="standard", weight=1.0,
                   rate_rps=scale * rates["steady"]),
        TenantSpec("aggressor", klass="batch", weight=1.0,
                   rate_rps=scale * rates["aggressor"], queue_limit=8),
    ]


def qos_scenario(tenants, seed: int, duration_s: float, warmup_s: float,
                 deadline_s: float, mode: str = "drr",
                 isolate: bool = True) -> ClusterScenario:
    """One section's scenario: the shared rack plus the given tenant set."""
    return ClusterScenario(
        duration_s=duration_s, warmup_s=warmup_s, seed=seed,
        deadline_s=deadline_s, tenants=tenants,
        qos_mode=mode, qos_isolate=isolate,
        **RACK, **CONTROL,
    )


def _tenant_point(report, name: str) -> dict:
    """One tenant's gate-relevant numbers from a run's qos report."""
    stats = report.qos["tenants"][name]
    base_ratio = measured_deflate_ratio(CorpusKind.HTML)
    brownout_fraction = stats["brownout_fraction"]
    effective_ratio = base_ratio * (
        1.0 + brownout_fraction * (BROWNOUT_RATIO_PENALTY - 1.0))
    return {
        "goodput_rps": stats["goodput_rps"],
        "completed": stats["completed"],
        "submitted": stats["submitted"],
        "deadline_hit_rate": stats["deadline_hit_rate"],
        "rejected": stats["rejected"],
        "shed": stats["shed"],
        "latency_p50_us": stats["latency_p50_us"],
        "latency_p99_us": stats["latency_p99_us"],
        "brownout_fraction": brownout_fraction,
        # Degraded-mode quality: the compression ratio the tenant's
        # traffic actually achieved, brownout-weighted (higher = worse).
        "effective_compression_ratio": effective_ratio,
        "compression_ratio_delta": effective_ratio - base_ratio,
    }


def _section(report) -> dict:
    """A full section payload: per-tenant points plus class breakdowns."""
    return {
        "tenants": {
            name: _tenant_point(report, name)
            for name in sorted(report.qos["tenants"])
        },
        "classes": report.qos["classes"],
        "arbiter_served_seconds": report.qos["arbiter_served_seconds"],
        "rps": report.rps,
        "p99_s": report.latency["p99"],
    }


def run_isolated_point(name: str, seed: int, duration_s: float,
                       warmup_s: float) -> dict:
    """One tenant alone at its shared-run rate: its isolation baseline."""
    capacity = fleet_capacity_rps()
    deadline_s = derive_deadline_s()
    spec = next(t for t in make_tenants(tenant_rates(capacity))
                if t.name == name)
    solo = qos_scenario([spec], seed, duration_s, warmup_s, deadline_s)
    return _tenant_point(run_scenario(solo), name)


def run_shared_point(seed: int, duration_s: float, warmup_s: float,
                     mode: str = "drr", isolate: bool = True,
                     load: float = None, chaos: bool = False) -> dict:
    """All tenants together at their section rates, or scaled so their
    aggregate offered load is `load` x fleet capacity; `chaos` adds
    node_down + channel_wedge windows."""
    capacity = fleet_capacity_rps()
    rates = tenant_rates(capacity)
    scale = 1.0 if load is None else load * capacity / sum(rates.values())
    window = duration_s - warmup_s
    injector = FleetFaultInjector([
        FaultWindow(kind="node_down", server=0,
                    start_s=warmup_s + 0.3 * window,
                    duration_s=0.2 * window),
        FaultWindow(kind="channel_wedge", server=1, channel=0,
                    start_s=warmup_s + 0.6 * window,
                    duration_s=0.2 * window),
    ]) if chaos else None
    report = run_scenario(qos_scenario(
        make_tenants(rates, scale=scale), seed, duration_s, warmup_s,
        derive_deadline_s(), mode=mode, isolate=isolate),
        fault_injector=injector)
    section = _section(report)
    if chaos:
        section["chaos"] = {
            "availability": report.chaos["availability"],
            "windows": len(report.chaos["windows"]),
        }
    return section


def fairness_rollup(isolated: dict, attack: dict, fifo: dict, chaos: dict,
                    surge: dict) -> dict:
    """Assemble the fairness payload (sections + gate summary)."""
    capacity = fleet_capacity_rps()
    deadline_s = derive_deadline_s()
    rates = tenant_rates(capacity)
    fair_share_rps = capacity / 3.0
    victim_ratio = (
        attack["tenants"]["victim"]["goodput_rps"]
        / isolated["victim"]["goodput_rps"]
        if isolated["victim"]["goodput_rps"] else 0.0)
    steady_ratio = (
        attack["tenants"]["steady"]["goodput_rps"]
        / isolated["steady"]["goodput_rps"]
        if isolated["steady"]["goodput_rps"] else 0.0)
    chaos_ratio = (
        chaos["tenants"]["victim"]["goodput_rps"]
        / isolated["victim"]["goodput_rps"]
        if isolated["victim"]["goodput_rps"] else 0.0)
    # Work conservation hands the victims' unused share to the aggressor;
    # the cap is therefore fair share + the victims' leftover, padded by
    # the tolerance.
    victims_leftover_rps = max(
        0.0,
        2.0 * fair_share_rps
        - attack["tenants"]["victim"]["goodput_rps"]
        - attack["tenants"]["steady"]["goodput_rps"])
    aggressor_cap_rps = AGGRESSOR_CAP_TOLERANCE * (
        fair_share_rps + victims_leftover_rps)
    surge_p99_us = surge["tenants"]["victim"]["latency_p99_us"]
    summary = {
        "capacity_rps": capacity,
        "deadline_s": deadline_s,
        "fair_share_rps": fair_share_rps,
        "offered_rates_rps": dict(sorted(rates.items())),
        "victim_goodput_ratio": victim_ratio,
        "steady_goodput_ratio": steady_ratio,
        "victim_goodput_ratio_chaos": chaos_ratio,
        "victim_goodput_ratio_fifo": (
            fifo["tenants"]["victim"]["goodput_rps"]
            / isolated["victim"]["goodput_rps"]
            if isolated["victim"]["goodput_rps"] else 0.0),
        "aggressor_goodput_rps": attack["tenants"]["aggressor"]["goodput_rps"],
        "aggressor_cap_rps": aggressor_cap_rps,
        "aggressor_capped": (
            attack["tenants"]["aggressor"]["goodput_rps"] <= aggressor_cap_rps),
        "surge_latency_p99_us": surge_p99_us,
        "surge_latency_deadline_us": deadline_s * 1e6,
        # No measured victim completion means no bound was shown.
        "surge_latency_bounded": (
            surge_p99_us is not None and surge_p99_us <= deadline_s * 1e6),
    }
    return {
        "isolated": isolated,
        "attack": attack,
        "attack_fifo": fifo,
        "attack_chaos": chaos,
        "surge": surge,
        "summary": summary,
    }


# -- hierarchical retry isolation (micro) --------------------------------------------


def _drive_child(child, seed: int, ops: int, probability: float) -> dict:
    """Drive one tenant's lossy QuickAssist through its child budget."""
    from repro.accel.quickassist import QuickAssist

    qat = QuickAssist(retry_budget=child)
    qat.attach_fault_plan(FaultPlan(seed=seed, specs=(
        FaultSpec(FaultSite.ACCEL_COMPLETION_DROP, probability=probability,
                  params={"max_retries": 8}),
    )))
    key, nonce, payload = bytes(range(16)), bytes(range(12)), bytes(4096)
    ok = failed = 0
    for _ in range(ops):
        try:
            qat.tls_encrypt(key, nonce, payload)
            ok += 1
        except Exception:
            failed += 1
    return {"ops": ops, "ok": ok, "failed": failed,
            "budget": child.summary()}


def run_retry_isolation(seed: int, ops: int = 60) -> dict:
    """An aggressor's 100%-lossy retry storm next to a victim's 10% loss.

    Both tenants retry through per-tenant children of one shared
    :class:`~repro.overload.retry.RetryBudget`.  The aggressor's child
    drains (every drop retried, nothing refills); the victim's light
    losses keep succeeding — and the gate is that the victim is *never*
    denied because the parent pool was empty (``denied_parent == 0``).
    """
    parent = RetryBudget(capacity=40.0, refill_per_success=0.5, seed=seed)
    aggressor = parent.child("aggressor", capacity=10.0)
    victim = parent.child("victim", capacity=10.0)
    # The aggressor storms first — worst case for the victim.
    aggressor_out = _drive_child(aggressor, seed, ops, probability=1.0)
    victim_out = _drive_child(victim, seed + 1, ops, probability=0.1)
    return {
        "aggressor": aggressor_out,
        "victim": victim_out,
        "parent": {key: value for key, value in parent.summary().items()
                   if key != "children"},
        "victim_denied_parent": victim_out["budget"]["denied_parent"],
        "victim_isolated": victim_out["budget"]["denied_parent"] == 0,
    }


# -- experiment-matrix points --------------------------------------------------------

#: The three tenants the isolated baselines cover.
TENANT_NAMES = ("victim", "steady", "aggressor")


def matrix_points(seed: int, quick: bool) -> dict:
    """This sweep's matrix points, ``{label: (function, kwargs)}``."""
    run = {"seed": seed, "duration_s": 0.008 if quick else 0.02,
           "warmup_s": 0.002 if quick else 0.005}
    table = {"isolated/%s" % name: (run_isolated_point, dict(run, name=name))
             for name in TENANT_NAMES}
    table.update({
        "attack": (run_shared_point, run),
        "attack_fifo": (run_shared_point,
                        dict(run, mode="fifo", isolate=False)),
        "attack_chaos": (run_shared_point, dict(run, chaos=True)),
        "surge": (run_shared_point, dict(run, load=2.0)),
        "retry_isolation": (run_retry_isolation, {"seed": seed}),
    })
    return table


def rollup(results: dict, seed: int, quick: bool) -> dict:
    """Per-instance results -> the complete CLI/BENCH payload."""
    isolated = {name: results["isolated/%s" % name]
                for name in TENANT_NAMES}
    return {
        "seed": seed,
        "quick": quick,
        "fairness": fairness_rollup(
            isolated, results["attack"], results["attack_fifo"],
            results["attack_chaos"], results["surge"]),
        "retry_isolation": results["retry_isolation"],
    }


def render(report: dict) -> str:
    """Human-readable CLI summary."""
    fairness = report["fairness"]
    summary = fairness["summary"]
    lines = []
    lines.append(
        "qos sweep (seed %d%s): capacity %.0f rps, fair share %.0f rps, "
        "deadline %.0fus, aggressor %gx fair share"
        % (report["seed"], ", quick" if report["quick"] else "",
           summary["capacity_rps"], summary["fair_share_rps"],
           summary["deadline_s"] * 1e6, AGGRESSOR_FACTOR))
    lines.append("  %-10s %-10s %12s %12s %10s %8s" % (
        "section", "tenant", "goodput", "vs isolated", "p99", "hit rate"))
    for section in ("attack", "attack_fifo", "attack_chaos", "surge"):
        for name in ("victim", "steady", "aggressor"):
            point = fairness[section]["tenants"][name]
            baseline = fairness["isolated"][name]["goodput_rps"]
            ratio = point["goodput_rps"] / baseline if baseline else 0.0
            p99 = point["latency_p99_us"]
            lines.append("  %-10s %-10s %12.0f %11.0f%% %11s %7.0f%%" % (
                section, name, point["goodput_rps"], 100.0 * ratio,
                "n/a" if p99 is None else "%.1fus" % p99,
                100.0 * point["deadline_hit_rate"]))
    lines.append(
        "  victim keeps %.0f%% isolated goodput under attack "
        "(%.0f%% with chaos, %.0f%% without QoS); aggressor %.0f rps vs "
        "%.0f rps cap"
        % (100.0 * summary["victim_goodput_ratio"],
           100.0 * summary["victim_goodput_ratio_chaos"],
           100.0 * summary["victim_goodput_ratio_fifo"],
           summary["aggressor_goodput_rps"], summary["aggressor_cap_rps"]))
    retry = report["retry_isolation"]
    lines.append(
        "retry isolation: aggressor child denied %d/%d, victim ok %d/%d "
        "with denied_parent=%d"
        % (retry["aggressor"]["budget"]["denied_child"]
           + retry["aggressor"]["budget"]["denied_parent"],
           retry["aggressor"]["ops"], retry["victim"]["ok"],
           retry["victim"]["ops"], retry["victim_denied_parent"]))
    return "\n".join(lines)
