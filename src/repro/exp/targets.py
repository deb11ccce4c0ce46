"""The experiment-matrix target registry.

A :class:`Target` is one figure family and the only place that family is
defined: its ``points(seed, quick)`` is an ordered table
``{label: (function, kwargs)}`` that names every point and what computes
it, :meth:`Target.run_point` looks a spec's label up in that table and
calls its entry, ``rollup`` reassembles point results into the payload
its committed baseline stores, ``render`` prints that payload for people,
and ``code_deps`` names the *code-relevant* source prefixes its cache
digest covers (an edit outside them keeps every cached point valid, so
they include the module of every function its table names).
Its headline numbers and acceptance gates are data, not code: a
``{metric: dotted path}`` map and ``(path, op, bound, why)`` rows, both
read through :func:`lookup`.

Seven targets mirror the seven sweeps:

* ``datapath`` — the paper's two headline analytic figures: the
  placement crossover vs message size (Figs. 11/12) and the Table I
  co-runner interference matrix, straight from the calibrated
  :class:`~repro.sim.server.ServerModel`.
* ``cluster`` — the rack-scale DES: closed-loop TLS per placement plus
  an open-loop spill point.
* ``faults`` — whole-stack chaos (``python -m repro chaos``) across
  several seeds; the rollup requires zero escaped corruption.
* ``overload`` / ``replication`` / ``qos`` / ``ras`` — the extension
  sweeps, whose point table, rollup and render live in their sweep
  modules and are imported only when first called.
"""

from __future__ import annotations

import importlib
import math
import operator
import os
from dataclasses import dataclass

from repro.exp.spec import RunSpec

#: The module that holds the inline targets' (datapath, cluster, faults)
#: point tables and point functions.
_THIS_MODULE = (__name__,)
#: Source prefixes nearly every simulation target depends on.
_MICRO_DEPS = ("repro.core", "repro.ulp", "repro.dram", "repro.cache",
               "repro.cpu", "repro.workloads", "repro.faults")
_FLEET_DEPS = ("repro.cluster", "repro.sim", "repro.overload", "repro.qos",
               "repro.accel", "repro.net", "repro.apps")

#: The checkout root the committed ``BENCH_*.json`` baselines live in.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))))

#: Comparison operators a gate row may name.
_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
        ">=": operator.ge, "==": operator.eq}


def lookup(payload, path: str):
    """The value at dotted ``path`` in a nested dict; None if absent."""
    value = payload
    for key in path.split("."):
        if not isinstance(value, dict):
            return None
        value = value.get(key)
    return value


def format_value(value) -> str:
    """Compact text for one payload value (4 significant digits)."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return "%.4g" % value
    return str(value)


def geomean(values) -> float:
    """Geometric mean of the positive values (0.0 when there are none)."""
    values = [v for v in values if v and v > 0.0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass(frozen=True)
class Target:
    """One figure family of the experiment matrix.

    ``headlines`` maps each headline metric to a dotted path into the
    rollup.  Each ``gates`` row is ``(path, op, bound, why)``: the value
    at ``path`` must satisfy ``op`` against ``bound`` — a number, a bool,
    or another dotted path.  A missing (None) value fails its row.
    """

    name: str
    description: str
    code_deps: tuple          # source prefixes hashed into the cache key
    default_seed: int
    points: callable          # (seed, quick) -> {label: (function, kwargs)}
    rollup: callable          # ({label: result}, seed, quick) -> payload
    headlines: dict           # metric -> dotted path into the rollup
    gates: tuple              # (path, op, bound, why) rows
    render: callable = None   # rollup payload -> text (or None)

    def specs(self, seed: int = None, quick: bool = False) -> list:
        """This target's full point grid as RunSpecs (None = default seed)."""
        seed = self.default_seed if seed is None else seed
        return [RunSpec(self.name, label, seed, quick=quick)
                for label in self.points(seed, quick)]

    def run_point(self, spec: RunSpec) -> dict:
        """Run one point purely: the table entry its label names."""
        table = self.points(spec.seed, spec.quick)
        if spec.instance not in table:
            raise ValueError("unknown %s point %r"
                             % (self.name, spec.instance))
        function, kwargs = table[spec.instance]
        return function(**kwargs)

    def headline(self, payload: dict) -> dict:
        """The headline metrics of a rollup payload."""
        return {key: lookup(payload, path)
                for key, path in self.headlines.items()}

    def gate(self, payload: dict) -> list:
        """One ``"<target>: ..."`` message per failed gate row."""
        failures = []
        for path, op, bound, why in self.gates:
            value = lookup(payload, path)
            relative = isinstance(bound, str)
            limit = lookup(payload, bound) if relative else bound
            if value is None or limit is None or not _OPS[op](value, limit):
                shown = ("%s = %s" % (bound, format_value(limit))
                         if relative else format_value(limit))
                failures.append("%s: %s is %s, need %s %s (%s)"
                                % (self.name, path, format_value(value), op,
                                   shown, why))
        return failures

    @property
    def baseline(self) -> str:
        """The committed baseline file, relative to REPO_ROOT."""
        return "BENCH_%s.json" % self.name

    def baseline_path(self) -> str:
        """Absolute path of the committed baseline."""
        return os.path.join(REPO_ROOT, self.baseline)


# -- datapath: placement crossover + co-runner interference --------------------------

#: Message sizes of the crossover figure (Fig. 11/12 sweep).
CROSSOVER_SIZES = (4096, 16384, 65536)
QUICK_CROSSOVER_SIZES = (16384,)

#: Placements per ULP (SmartNIC cannot run DEFLATE).
CROSSOVER_PLACEMENTS = {
    "tls": ("cpu", "smartnic", "quickassist", "smartdimm"),
    "deflate": ("cpu", "quickassist", "smartdimm"),
}

#: Table I's co-run placements, each serving secure Nginx at
#: ``CORUN_BYTES`` beside mcf.
CORUN_PLACEMENTS = ("cpu", "smartnic", "quickassist", "smartdimm")
CORUN_BYTES = 4096


def _server_spec(ulp: str, placement: str, size: int):
    from repro.sim.server import Placement, Ulp, WorkloadSpec

    return WorkloadSpec(ulp=Ulp(ulp), placement=Placement(placement),
                        message_bytes=size)


def _crossover_point(ulp: str, placement: str, size: int) -> dict:
    from repro.sim.server import ServerModel

    metrics = ServerModel(_server_spec(ulp, placement, size)).solve()
    return {
        "rps": metrics.rps,
        "cycles_per_request": metrics.cycles_per_request,
        "membw_bytes_per_request": metrics.membw_bytes_per_request,
        "miss_probability": metrics.miss_probability,
        "bottleneck": metrics.bottleneck,
    }


def _corun_point(placement: str) -> dict:
    from repro.sim.server import corun

    result = corun(_server_spec("tls", placement, CORUN_BYTES))
    return {
        "nginx_solo_rps": result.nginx_solo.rps,
        "nginx_corun_rps": result.nginx_corun.rps,
        "nginx_slowdown": result.nginx_slowdown,
        "corunner_slowdown": result.corunner_slowdown,
    }


def _datapath_points(seed: int, quick: bool) -> dict:
    sizes = QUICK_CROSSOVER_SIZES if quick else CROSSOVER_SIZES
    table = {"crossover/%s/%s/%d" % (ulp, placement, size): (
                 _crossover_point,
                 {"ulp": ulp, "placement": placement, "size": size})
             for ulp in sorted(CROSSOVER_PLACEMENTS)
             for placement in CROSSOVER_PLACEMENTS[ulp]
             for size in sizes}
    for placement in CORUN_PLACEMENTS:
        table["corun/%s" % placement] = (_corun_point,
                                         {"placement": placement})
    return table


def _datapath_rollup(results: dict, seed: int, quick: bool) -> dict:
    sizes = QUICK_CROSSOVER_SIZES if quick else CROSSOVER_SIZES
    crossover = {}
    for ulp in sorted(CROSSOVER_PLACEMENTS):
        crossover[ulp] = {}
        for size in sizes:
            row = {placement: results["crossover/%s/%s/%d"
                                      % (ulp, placement, size)]
                   for placement in CROSSOVER_PLACEMENTS[ulp]}
            cpu_rps = row["cpu"]["rps"]
            for placement, point in row.items():
                point["speedup_vs_cpu"] = (
                    point["rps"] / cpu_rps if cpu_rps else None)
            crossover[ulp]["%d" % size] = row
    corun_rows = {placement: results["corun/%s" % placement]
                  for placement in CORUN_PLACEMENTS}
    smartdimm_speedups = [
        crossover[ulp][size_key]["smartdimm"]["speedup_vs_cpu"]
        for ulp in crossover for size_key in crossover[ulp]]
    summary = {
        "geomean_smartdimm_speedup_vs_cpu": geomean(smartdimm_speedups),
        "corun_best_isolation": min(
            corun_rows, key=lambda p: corun_rows[p]["nginx_slowdown"]),
        "corun_smartdimm_nginx_slowdown": (
            corun_rows["smartdimm"]["nginx_slowdown"]),
        "corun_smartdimm_mcf_slowdown": (
            corun_rows["smartdimm"]["corunner_slowdown"]),
    }
    return {"seed": seed, "quick": quick, "crossover": crossover,
            "corun": corun_rows, "summary": summary}


def _datapath_render(payload: dict) -> str:
    """Figs. 11/12 at every message size the payload holds, normalised to
    cpu, then the Table I co-run rows."""
    crossover = payload["crossover"]
    lines = ["datapath: rps, cpu cycles and memory bytes per request, "
             "normalised to cpu (Figs. 11/12)"]
    for size in sorted(crossover["tls"], key=int):
        for ulp in ("tls", "deflate"):
            row = crossover[ulp][size]
            base = row["cpu"]
            lines.append("  %s %sB (cpu: %s req/s)"
                         % (ulp.upper(), size, format(base["rps"], ",.0f")))
            for placement in CROSSOVER_PLACEMENTS[ulp]:
                point = row[placement]
                lines.append("    %-12s rps=%5.2fx cpu=%5.2fx bw=%5.2fx" % (
                    placement, point["rps"] / base["rps"],
                    point["cycles_per_request"] / base["cycles_per_request"],
                    point["membw_bytes_per_request"]
                    / base["membw_bytes_per_request"]))
    lines.append("  Table I: TLS %dB co-run with mcf, slowdown vs solo"
                 % CORUN_BYTES)
    for placement in CORUN_PLACEMENTS:
        point = payload["corun"][placement]
        lines.append("    %-12s nginx=%5.1f%% mcf=%5.1f%% corun=%s req/s" % (
            placement, 100 * point["nginx_slowdown"],
            100 * point["corunner_slowdown"],
            format(point["nginx_corun_rps"], ",.0f")))
    return "\n".join(lines)


# -- cluster: rack-scale DES ---------------------------------------------------------

CLUSTER_PLACEMENTS = ("smartdimm", "cpu", "quickassist")


def _cluster_point(**scenario) -> dict:
    from repro.cluster.scenario import ClusterScenario, run_scenario

    return run_scenario(ClusterScenario(**scenario)).to_dict()


def _cluster_points(seed: int, quick: bool) -> dict:
    rack = dict(servers=2, channels=4, threads=8, ulp="tls",
                message_bytes=16384, seed=seed,
                duration_s=0.008 if quick else 0.02,
                warmup_s=0.002 if quick else 0.005)
    table = {"closed/%s" % placement: (
                 _cluster_point, dict(rack, placement=placement,
                                      mode="closed", connections=256))
             for placement in CLUSTER_PLACEMENTS}
    table["open/spill"] = (_cluster_point, dict(
        rack, placement="smartdimm", mode="open", arrival="poisson",
        scheduler="adaptive-spill"))
    return table


def _cluster_rollup(results: dict, seed: int, quick: bool) -> dict:
    closed = {placement: results["closed/%s" % placement]
              for placement in CLUSTER_PLACEMENTS}
    cpu_rps = closed["cpu"]["rps"]
    summary = {
        "smartdimm_rps": closed["smartdimm"]["rps"],
        "smartdimm_over_cpu_rps": (
            closed["smartdimm"]["rps"] / cpu_rps if cpu_rps else None),
        "smartdimm_p99_s": closed["smartdimm"]["latency_s"]["p99"],
        "spill_fraction": (
            results["open/spill"]["spilled"]
            / max(1, results["open/spill"]["submitted"])),
    }
    return {"seed": seed, "quick": quick, "closed": closed,
            "open_spill": results["open/spill"], "summary": summary}


# -- faults: whole-stack chaos -------------------------------------------------------

#: Seed offsets of the chaos arms (spec.seed + offset drives each run).
CHAOS_ARMS = (0, 1, 2)
QUICK_CHAOS_ARMS = (0,)


def _faults_points(seed: int, quick: bool) -> dict:
    from repro.faults.chaos import run_chaos

    arms = QUICK_CHAOS_ARMS if quick else CHAOS_ARMS
    return {"chaos/seed%d" % (seed + offset): (
                run_chaos, {"seed": seed + offset, "ops": 12 if quick else 24})
            for offset in arms}


def _faults_rollup(results: dict, seed: int, quick: bool) -> dict:
    arms = QUICK_CHAOS_ARMS if quick else CHAOS_ARMS
    runs = {"seed%d" % (seed + offset):
            results["chaos/seed%d" % (seed + offset)] for offset in arms}
    corruption = sum(run["micro"]["corruption_observed"]
                     for run in runs.values())
    availability = geomean(
        [run["cluster"]["chaos"]["availability"] for run in runs.values()])
    summary = {
        "corruption_observed_default_seed": (
            runs["seed%d" % seed]["micro"]["corruption_observed"]),
        "corruption_observed_total": corruption,
        "geomean_availability": availability,
        "seeds": sorted(runs),
    }
    return {"seed": seed, "quick": quick, "runs": runs, "summary": summary}


# -- the extension sweeps delegate to their modules ----------------------------------


def _forward(module_path: str, attr: str):
    """``module_path.attr``, imported on the first call rather than here."""

    def call(*args):
        return getattr(importlib.import_module(module_path), attr)(*args)

    return call


def _sweep_target(name, module_path, description, deps, default_seed,
                  headlines, gates):
    """Build a Target whose functions live in a sweep module."""
    return Target(name=name, description=description, code_deps=deps,
                  default_seed=default_seed,
                  points=_forward(module_path, "matrix_points"),
                  rollup=_forward(module_path, "rollup"),
                  render=_forward(module_path, "render"),
                  headlines=headlines, gates=gates)


# -- the registry --------------------------------------------------------------------

TARGETS = {
    target.name: target for target in (
        Target(
            name="datapath",
            description="placement crossover (Figs. 11/12) + Table I "
                        "co-runner interference, analytic",
            code_deps=_THIS_MODULE + ("repro.sim", "repro.cpu"),
            default_seed=1,
            points=_datapath_points,
            rollup=_datapath_rollup,
            render=_datapath_render,
            headlines={
                "smartdimm_speedup_vs_cpu":
                    "summary.geomean_smartdimm_speedup_vs_cpu",
                "corun_nginx_slowdown":
                    "summary.corun_smartdimm_nginx_slowdown",
            },
            gates=(
                ("summary.geomean_smartdimm_speedup_vs_cpu", ">", 1.0,
                 "smartdimm beats cpu rps on the crossover geomean"),
                ("summary.corun_smartdimm_nginx_slowdown", "<",
                 "corun.cpu.nginx_slowdown",
                 "smartdimm slows a co-running nginx less than cpu does"),
            ),
        ),
        Target(
            name="cluster",
            description="rack-scale DES: closed-loop TLS per placement + "
                        "open-loop spill",
            code_deps=_THIS_MODULE + _FLEET_DEPS + _MICRO_DEPS,
            default_seed=1,
            points=_cluster_points,
            rollup=_cluster_rollup,
            headlines={
                "smartdimm_over_cpu_rps": "summary.smartdimm_over_cpu_rps",
            },
            gates=(
                ("summary.smartdimm_over_cpu_rps", ">", 1.0,
                 "smartdimm beats cpu closed-loop rps"),
            ),
        ),
        Target(
            name="faults",
            description="whole-stack chaos across seeds: zero escaped "
                        "corruption at the default seed",
            code_deps=_THIS_MODULE + _MICRO_DEPS + _FLEET_DEPS,
            default_seed=7,
            points=_faults_points,
            rollup=_faults_rollup,
            headlines={
                "corruption_observed_default_seed":
                    "summary.corruption_observed_default_seed",
                "corruption_observed_total":
                    "summary.corruption_observed_total",
                "geomean_availability": "summary.geomean_availability",
            },
            # The zero-corruption contract (`python -m repro chaos`'s
            # docstring) is pinned at the default seed.  Extra arms are
            # exploratory: they report corruption_observed_total as
            # telemetry but do not gate — the matrix already surfaced one
            # real finding this way (seed 9 escapes because a
            # detected-uncorrectable ECC read is passed on as data; see
            # the ROADMAP item "Detected-uncorrectable reads become
            # typed failures").
            gates=(
                ("summary.corruption_observed_default_seed", "==", 0,
                 "no corrupted output escapes recovery at the default "
                 "chaos seed"),
            ),
        ),
        _sweep_target(
            "overload", "repro.overload.sweep",
            "goodput-vs-offered-load: control on vs off, retry "
            "amplification, chaos composition",
            ("repro.overload",) + _FLEET_DEPS + _MICRO_DEPS, 11,
            headlines={
                "shed_2x_over_peak": "sweep.summary.shed_2x_over_peak",
                "capacity_rps": "sweep.summary.capacity_rps",
            },
            gates=(
                ("sweep.summary.shed_2x_over_peak", ">=", 0.70,
                 "controlled goodput at 2x offered load holds 70% of peak"),
                ("sweep.summary.noshed_2x_over_peak", "<=", 0.35,
                 "uncontrolled goodput collapses at 2x, so the sweep "
                 "exercises overload"),
            )),
        _sweep_target(
            "replication", "repro.replication.sweep",
            "replicated storage: protocol x placement under chaos",
            ("repro.replication",) + _FLEET_DEPS + _MICRO_DEPS, 7,
            headlines={
                "smartdimm_over_cpu_goodput_fault":
                    "summary.smartdimm_over_cpu_goodput_fault",
                "total_violations": "summary.total_violations",
            },
            gates=(
                ("summary.total_violations", "==", 0,
                 "the consistency checker finds no violation"),
                ("summary.smartdimm_over_cpu_goodput_fault", ">", 1.0,
                 "smartdimm hops beat cpu onload on goodput under fault"),
            )),
        _sweep_target(
            "qos", "repro.qos.sweep",
            "multi-tenant fairness: noisy neighbor vs DRR isolation",
            ("repro.qos",) + _FLEET_DEPS + _MICRO_DEPS, 11,
            headlines={
                "victim_goodput_ratio":
                    "fairness.summary.victim_goodput_ratio",
                "aggressor_capped": "fairness.summary.aggressor_capped",
            },
            gates=(
                ("fairness.summary.victim_goodput_ratio", ">=", 0.85,
                 "the victim keeps 85% of its isolated goodput under "
                 "attack"),
                ("fairness.summary.steady_goodput_ratio", ">=", 0.85,
                 "the steady tenant keeps 85% of its isolated goodput "
                 "under attack"),
                ("fairness.summary.victim_goodput_ratio_chaos", ">=", 0.85,
                 "the victim keeps 85% of its isolated goodput under "
                 "attack plus chaos"),
                ("fairness.summary.aggressor_goodput_rps", "<=",
                 "fairness.summary.aggressor_cap_rps",
                 "the aggressor is capped at fair share plus the victims' "
                 "leftover"),
                ("fairness.summary.surge_latency_p99_us", "<=",
                 "fairness.summary.surge_latency_deadline_us",
                 "the latency class meets its deadline under 2x aggregate "
                 "load"),
                ("retry_isolation.victim_isolated", "==", True,
                 "the aggressor's retry storm never drains the shared "
                 "budget under the victim"),
                ("fairness.summary.victim_goodput_ratio_fifo", "<=", 0.75,
                 "without QoS the victim loses goodput, so the sweep "
                 "exercises interference"),
            )),
        _sweep_target(
            "ras", "repro.ras.sweep",
            "memory RAS + integrity: scrub x SDC grid, quarantine, fleet "
            "storms",
            ("repro.ras",) + _MICRO_DEPS + _FLEET_DEPS, 11,
            headlines={
                "grid_undetected": "summary.grid_undetected",
                "scrub_overhead_default": "summary.scrub_overhead_default",
            },
            gates=(
                ("summary.grid_undetected", "==", 0,
                 "no corruption escapes end-to-end verification in the "
                 "scrub x SDC grid"),
                ("summary.sdc_undetected_verify_on", "==", 0,
                 "no SDC corruption escapes with verification on"),
                ("summary.sdc_undetected_verify_off", ">", 0,
                 "the verify-off arm leaks, so the SDC personality "
                 "corrupts results"),
                ("summary.scrub_overhead_default", "<=",
                 "summary.scrub_overhead_ceiling",
                 "patrol scrub at the default rate stays under its cycle "
                 "ceiling"),
                ("summary.at_risk_scrub_default", "<",
                 "summary.at_risk_scrub_off",
                 "scrubbing reduces the lines exposed to an uncorrectable "
                 "error"),
                ("summary.quarantine_trips", ">", 0,
                 "a lane quarantine trips during the SDC storm"),
                ("summary.quarantine_readmissions", ">", 0,
                 "a quarantined lane is re-admitted after probation"),
                ("summary.fleet_undetected_full_coverage", "==", 0,
                 "no fleet SDC corruption escapes at full verify "
                 "coverage"),
                ("summary.fleet_detected_full_coverage", ">", 0,
                 "the fleet sdc_storm is detected"),
            )),
    )
}


def target_names() -> list:
    """Every registered target name, sorted."""
    return sorted(TARGETS)


def get_target(name: str) -> Target:
    """Look a target up by name; KeyError lists the known names."""
    try:
        return TARGETS[name]
    except KeyError:
        raise KeyError("unknown matrix target %r (known: %s)"
                       % (name, ", ".join(target_names())))
