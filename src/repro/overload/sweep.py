"""The goodput-vs-offered-load sweep behind the ``overload`` matrix target.

Three deterministic sections, committed as ``BENCH_overload.json`` and run
with ``python -m repro matrix --only overload [--quick|--check|--update]``
(the target in :mod:`repro.exp.targets` owns the gate thresholds):

* **sweep** — open-loop Poisson TLS traffic against a 2-server rack at
  0.5x-3x the analytic fixed-point capacity, once with the full overload
  stack on (``shed``: deadlines + CoDel admission + bounded queues +
  brownout) and once with it off (``noshed``: deadlines *measured* but
  never enforced).  The controlled curve must degrade gracefully —
  goodput at 2x >= 70% of peak, p99 bounded by the deadline; the
  uncontrolled curve exhibits the classic metastable collapse (throughput
  stays at capacity while goodput falls off a cliff, because every
  completion is late).
* **retry_amplification** — the micro-level half of the same story: a
  QuickAssist card dropping completions, retried under a shared token
  bucket vs an effectively unbounded budget.  The bounded budget caps the
  retry traffic (fail fast); the unbounded one multiplies the wasted
  wall-time per success.
* **chaos_composition** — overload and component failure at once: the 2x
  shed scenario with a ``node_down`` window injected by
  :class:`repro.cluster.chaos.FleetFaultInjector`, demonstrating the two
  robustness layers compose (requests re-route around the dead node *and*
  still meet deadlines).

Determinism contract: every number derives from seeded simulation — two
runs with the same seed produce byte-identical payloads
(``tests/overload/test_overload_smoke.py``).
"""

from __future__ import annotations

from repro.cluster.chaos import FaultWindow, FleetFaultInjector
from repro.cluster.scenario import ClusterScenario, run_scenario
from repro.faults.plan import FaultPlan, FaultSite, FaultSpec
from repro.overload.retry import RetryBudget

#: Offered load as multiples of the analytic fixed-point capacity.
LOAD_FACTORS = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0)

#: The reduced sweep used by the tier-1 smoke test (<10 s).
QUICK_LOAD_FACTORS = (0.5, 1.0, 2.0)

#: Relative deadline applied to every request — ~10x the unloaded
#: service time of the 16 KB TLS request this sweep drives.
DEADLINE_S = 200e-6

#: The overload-control knobs of the "shed" curve.
CONTROL = {
    "deadline_s": DEADLINE_S,
    "shed_expired": True,
    "admission": "codel",
    "dsa_queue_limit": 16,
    "cpu_queue_limit": 64,
    "brownout_factor": 0.85,
}

#: The "noshed" curve: same deadline *measured*, nothing enforced.
NO_CONTROL = {
    "deadline_s": DEADLINE_S,
    "shed_expired": False,
    "admission": "none",
}


#: The rack and workload every point shares: open-loop Poisson TLS-16KB
#: on a 2-server rack.
RACK = {
    "servers": 2, "channels": 4, "threads": 8,
    "ulp": "tls", "placement": "smartdimm", "message_bytes": 16384,
    "mode": "open", "arrival": "poisson",
}


def overload_scenario(rate_rps: float, control: bool, seed: int,
                      duration_s: float, warmup_s: float) -> ClusterScenario:
    """One sweep point: the shared rack at `rate_rps`, control on or off."""
    knobs = CONTROL if control else NO_CONTROL
    return ClusterScenario(rate_rps=rate_rps, duration_s=duration_s,
                           warmup_s=warmup_s, seed=seed, **RACK, **knobs)


def fleet_capacity_rps() -> float:
    """The analytic fixed-point capacity of the sweep's rack."""
    probe = ClusterScenario(**RACK)
    return probe.build_profile().model_metrics.rps * probe.servers


def _curve_point(factor: float, report) -> dict:
    over = report.overload
    return {
        "load_factor": factor,
        "offered_rps": factor,  # patched below with the absolute rate
        "rps": report.rps,
        "goodput_rps": over["goodput_rps"],
        "p99_s": report.latency["p99"],
        "deadline_met": over["deadline_met"],
        "deadline_missed": over["deadline_missed"],
        "rejected_admission": over["rejected_admission"],
        "rejected_backpressure": over["rejected_backpressure"],
        "shed": over["shed"],
        "brownouts": over["brownouts"],
    }


def run_sweep_point(factor: float, control: bool, seed: int,
                    duration_s: float, warmup_s: float) -> dict:
    """One curve point, pure: everything derives from the arguments.

    The capacity normalising ``factor`` into an absolute rate is the
    analytic fixed point — recomputed here (cheaply) so a point needs no
    ambient state and can run in any pool worker.
    """
    capacity = fleet_capacity_rps()
    rate = factor * capacity
    scenario = overload_scenario(rate, control, seed, duration_s, warmup_s)
    point = _curve_point(factor, run_scenario(scenario))
    point["offered_rps"] = rate
    return point


def sweep_rollup(curves: dict, capacity: float) -> dict:
    """curves -> the full sweep section (curves + gate summary)."""

    def goodput_at(curve, factor):
        for point in curve:
            if point["load_factor"] == factor:
                return point["goodput_rps"]
        return None

    peak_shed = max(p["goodput_rps"] for p in curves["shed"])
    peak_noshed = max(p["goodput_rps"] for p in curves["noshed"])
    at2x_shed = goodput_at(curves["shed"], 2.0)
    at2x_noshed = goodput_at(curves["noshed"], 2.0)
    summary = {
        "capacity_rps": capacity,
        "deadline_s": DEADLINE_S,
        "peak_goodput_shed_rps": peak_shed,
        "peak_goodput_noshed_rps": peak_noshed,
        "goodput_2x_shed_rps": at2x_shed,
        "goodput_2x_noshed_rps": at2x_noshed,
        # The acceptance ratios the overload target gates on.
        "shed_2x_over_peak": (
            at2x_shed / peak_shed if at2x_shed is not None and peak_shed else None),
        "noshed_2x_over_peak": (
            at2x_noshed / peak_noshed
            if at2x_noshed is not None and peak_noshed else None),
    }
    return {"curves": curves, "summary": summary}


# -- retry amplification (micro) -----------------------------------------------------


def _drive_qat(budget: RetryBudget, seed: int, ops: int,
               probability: float, max_retries: int) -> dict:
    from repro.accel.quickassist import QuickAssist

    qat = QuickAssist(retry_budget=budget)
    qat.attach_fault_plan(FaultPlan(seed=seed, specs=(
        FaultSpec(FaultSite.ACCEL_COMPLETION_DROP, probability=probability,
                  params={"max_retries": max_retries}),
    )))
    key, nonce, payload = bytes(range(16)), bytes(range(12)), bytes(4096)
    ok = failed = 0
    wasted_s = 0.0
    latency_s = 0.0
    for _ in range(ops):
        try:
            result = qat.tls_encrypt(key, nonce, payload)
            ok += 1
            latency_s += result.offload_latency_s
        except Exception as error:
            failed += 1
            wasted_s += getattr(error, "wasted_seconds", 0.0)
    return {
        "ops": ops,
        "ok": ok,
        "failed": failed,
        "completions_lost": qat.completions_lost,
        "retries_executed": qat.completion_retries,
        "budget_denials": qat.budget_denials,
        "retries_per_op": (qat.completion_retries + qat.budget_denials) / ops,
        "latency_ok_s": latency_s,
        "wasted_failed_s": wasted_s,
        "budget": budget.summary(),
    }


def run_retry_amplification(seed: int, ops: int = 60,
                            probability: float = 0.5,
                            max_retries: int = 8) -> dict:
    """The same lossy accelerator, retried with and without a real budget.

    The "unbounded" arm models PR 3's per-op-cap-only behaviour with a
    bucket too large to ever drain; the "budgeted" arm caps aggregate
    retry traffic at ~20% of successes and fails the rest fast.
    """
    budgeted = _drive_qat(
        RetryBudget(capacity=10.0, refill_per_success=0.2, seed=seed),
        seed, ops, probability, max_retries)
    unbounded = _drive_qat(
        RetryBudget(capacity=1e9, refill_per_success=0.0, seed=seed),
        seed, ops, probability, max_retries)
    return {
        "probability": probability,
        "max_retries_per_op": max_retries,
        "budgeted": budgeted,
        "unbounded": unbounded,
        "retry_reduction": (
            1.0 - budgeted["retries_executed"] / unbounded["retries_executed"]
            if unbounded["retries_executed"] else 0.0),
    }


# -- overload + chaos composition ----------------------------------------------------


def run_chaos_composition(seed: int, duration_s: float,
                          warmup_s: float) -> dict:
    """2x overload with the control stack on, plus a node_down window."""
    capacity = fleet_capacity_rps()
    scenario = overload_scenario(2.0 * capacity, control=True, seed=seed,
                                 duration_s=duration_s, warmup_s=warmup_s)
    injector = FleetFaultInjector([
        FaultWindow(kind="node_down", server=0,
                    start_s=warmup_s + 0.3 * (duration_s - warmup_s),
                    duration_s=0.3 * (duration_s - warmup_s)),
    ])
    report = run_scenario(scenario, fault_injector=injector)
    return {
        "offered_rps": 2.0 * capacity,
        "goodput_rps": report.overload["goodput_rps"],
        "rps": report.rps,
        "p99_s": report.latency["p99"],
        "overload": report.overload,
        "chaos": report.chaos,
    }


# -- experiment-matrix points --------------------------------------------------------


def matrix_points(seed: int, quick: bool) -> dict:
    """This sweep's matrix points, ``{label: (function, kwargs)}``."""
    factors = QUICK_LOAD_FACTORS if quick else LOAD_FACTORS
    window = {"duration_s": 0.008 if quick else 0.02,
              "warmup_s": 0.002 if quick else 0.005}
    table = {"load/%g/%s" % (factor, arm): (run_sweep_point, dict(
                 window, factor=factor, control=arm == "shed", seed=seed))
             for arm in ("shed", "noshed") for factor in factors}
    table["retry_amplification"] = (run_retry_amplification, {"seed": seed})
    if not quick:
        table["chaos_composition"] = (run_chaos_composition,
                                      dict(window, seed=seed))
    return table


def rollup(results: dict, seed: int, quick: bool) -> dict:
    """Per-instance results -> the complete CLI/BENCH payload."""
    factors = QUICK_LOAD_FACTORS if quick else LOAD_FACTORS
    curves = {
        arm: [results["load/%g/%s" % (factor, arm)] for factor in factors]
        for arm in ("shed", "noshed")
    }
    report = {
        "seed": seed,
        "quick": quick,
        "sweep": sweep_rollup(curves, fleet_capacity_rps()),
        "retry_amplification": results["retry_amplification"],
    }
    if not quick:
        report["chaos_composition"] = results["chaos_composition"]
    return report


def render(report: dict) -> str:
    """Human-readable CLI summary."""
    summary = report["sweep"]["summary"]
    lines = []
    lines.append("overload sweep (seed %d%s): capacity %.0f rps, deadline %.0fus"
                 % (report["seed"], ", quick" if report["quick"] else "",
                    summary["capacity_rps"], summary["deadline_s"] * 1e6))
    lines.append("  %-6s %-8s %12s %12s %10s" % (
        "load", "control", "goodput", "throughput", "p99"))
    for name in ("shed", "noshed"):
        for point in report["sweep"]["curves"][name]:
            p99 = point["p99_s"]
            lines.append("  %-6s %-8s %12.0f %12.0f %9.1fus" % (
                "%.2fx" % point["load_factor"], name,
                point["goodput_rps"], point["rps"],
                (p99 or 0.0) * 1e6))
    lines.append(
        "  goodput at 2x: shed %.0f (%.0f%% of peak), noshed %.0f (%.0f%% of peak)"
        % (summary["goodput_2x_shed_rps"] or 0.0,
           100.0 * (summary["shed_2x_over_peak"] or 0.0),
           summary["goodput_2x_noshed_rps"] or 0.0,
           100.0 * (summary["noshed_2x_over_peak"] or 0.0)))
    retry = report["retry_amplification"]
    lines.append(
        "retry amplification: budgeted %.2f retries/op (%d denials), "
        "unbounded %.2f retries/op (-%.0f%% retry traffic)"
        % (retry["budgeted"]["retries_per_op"],
           retry["budgeted"]["budget_denials"],
           retry["unbounded"]["retries_per_op"],
           100.0 * retry["retry_reduction"]))
    chaos = report.get("chaos_composition")
    if chaos is not None:
        lines.append(
            "overload + node_down: goodput %.0f rps at 2x offered, "
            "p99 %.1fus, availability %.3f"
            % (chaos["goodput_rps"], (chaos["p99_s"] or 0.0) * 1e6,
               chaos["chaos"]["availability"]))
    return "\n".join(lines)
