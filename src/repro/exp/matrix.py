"""Build and execute the experiment matrix.

``build_matrix`` expands the target registry into one
:class:`~repro.exp.spec.RunSpec` per (target, instance, seed) grid point.
``run_matrix`` executes the grid: cached points are served from the
content-addressed :class:`~repro.exp.cache.ResultCache` (key = spec +
per-target code digest), the rest fan out across a ``multiprocessing``
pool, and each target's point results are reassembled by its ``rollup``
into exactly the payload its committed baseline stores.  The deterministic
payload and the wall-clock/cache accounting are kept strictly apart so
parallel and serial runs stay byte-identical.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from repro.exp.cache import ResultCache, code_digest
from repro.exp.pool import run_points
from repro.exp.spec import RunSpec
from repro.exp.targets import (TARGETS, format_value, geomean, get_target,
                               target_names)


@dataclass
class MatrixResult:
    """What one matrix run produced.

    ``payload`` is deterministic — identical for the same specs at any
    ``--jobs`` and whether points came from cache or execution.  Wall
    clock, job count, and cache accounting live only in ``timing``.
    """

    payload: dict
    timing: dict
    gate_failures: list = field(default_factory=list)


def build_matrix(only=None, quick: bool = False, seed: int = None) -> list:
    """One RunSpec per grid point, in deterministic registry order.

    ``only`` restricts to the named targets, each once, in first-seen
    order; ``seed`` overrides every target's default seed (None keeps
    per-target defaults, which match the committed BENCH baselines).
    """
    names = target_names() if not only else list(dict.fromkeys(only))
    specs = []
    for name in names:
        specs.extend(get_target(name).specs(seed=seed, quick=quick))
    return specs


def _statistics(rollups: dict, headlines: dict, specs: list) -> dict:
    """Cross-target rollup: the one-number summaries of the whole matrix."""
    ratios = {
        "datapath": headlines.get("datapath", {}).get(
            "smartdimm_speedup_vs_cpu"),
        "cluster": headlines.get("cluster", {}).get("smartdimm_over_cpu_rps"),
        "replication": headlines.get("replication", {}).get(
            "smartdimm_over_cpu_goodput_fault"),
    }
    ratios = {name: value for name, value in ratios.items() if value}
    return {
        "points": len(specs),
        "targets": sorted(rollups),
        "geomean_smartdimm_over_cpu": geomean(ratios.values()),
        "smartdimm_over_cpu_by_target": ratios,
    }


def run_matrix(specs, jobs: int = 1, cache: ResultCache = None,
               force: bool = False, progress=None) -> MatrixResult:
    """Execute the grid and reassemble per-target payloads.

    Points found in ``cache`` (same spec, same code digest over the
    target's declared source prefixes) are served without running;
    ``force`` executes everything and refreshes the cache.  ``progress``
    (a callable taking one line of text) narrates cache hits and batch
    boundaries.
    """
    say = progress or (lambda line: None)
    started = time.perf_counter()
    by_target = {}
    for spec in specs:
        by_target.setdefault(spec.target, []).append(spec)

    digests = {name: code_digest(get_target(name).code_deps)
               for name in by_target}

    results = {}          # spec.digest() -> result dict
    elapsed = {}          # spec label -> seconds (executed points only)
    cached_count = 0
    to_run = []
    for name, target_specs in sorted(by_target.items()):
        for spec in target_specs:
            entry = None
            if cache is not None and not force:
                entry = cache.get(spec, digests[name])
            if entry is not None:
                results[spec.digest()] = entry["result"]
                cached_count += 1
            else:
                to_run.append(spec)
    if cached_count:
        say("cache: %d/%d points served" % (cached_count, len(specs)))
    if to_run:
        say("running %d point%s across %d job%s"
            % (len(to_run), "s" if len(to_run) != 1 else "",
               jobs, "s" if jobs != 1 else ""))
        executed = run_points(to_run, jobs=jobs, progress=progress)
        for spec in to_run:
            result, point_elapsed = executed[spec.digest()]
            results[spec.digest()] = result
            elapsed[spec.label] = point_elapsed
            if cache is not None:
                cache.put(spec, digests[spec.target], result, point_elapsed)

    rollups, headlines, failures = {}, {}, []
    for name, target_specs in sorted(by_target.items()):
        target = get_target(name)
        per_instance = {spec.instance: results[spec.digest()]
                        for spec in target_specs}
        seed = target_specs[0].seed
        quick = target_specs[0].quick
        rollups[name] = target.rollup(per_instance, seed, quick)
        headlines[name] = target.headline(rollups[name])
        failures.extend(target.gate(rollups[name]))

    payload = {
        "quick": bool(specs and specs[0].quick),
        "targets": rollups,
        "headlines": headlines,
        "statistics": _statistics(rollups, headlines, specs),
        "gates": {"failures": failures, "passed": not failures},
    }
    timing = {
        "wall_s": time.perf_counter() - started,
        "jobs": jobs,
        "points_total": len(specs),
        "points_from_cache": cached_count,
        "points_executed": len(to_run),
        "point_elapsed_s": elapsed,
        "cache": cache.stats() if cache is not None else None,
    }
    return MatrixResult(payload=payload, timing=timing,
                        gate_failures=failures)


def matrix_to_json(result: MatrixResult) -> str:
    """Deterministic serialisation of the matrix payload (timing excluded)."""
    return json.dumps(result.payload, indent=2, sort_keys=True) + "\n"


def target_payload_json(result: MatrixResult, name: str) -> str:
    """One target's rollup, rendered exactly as its BENCH file stores it."""
    return json.dumps(result.payload["targets"][name], indent=2,
                      sort_keys=True) + "\n"


def render(result: MatrixResult) -> str:
    """Human-readable matrix report for the CLI: each target's own
    rendering of its payload, then the cross-target summary."""
    payload, timing = result.payload, result.timing
    lines = [get_target(name).render(rollup)
             for name, rollup in sorted(payload["targets"].items())
             if get_target(name).render is not None]
    lines.append("experiment matrix: %d points, %d targets%s"
                 % (timing["points_total"], len(payload["targets"]),
                    ", quick" if payload["quick"] else ""))
    for name in sorted(payload["headlines"]):
        metrics = ", ".join(
            "%s=%s" % (key, format_value(value))
            for key, value in sorted(payload["headlines"][name].items()))
        lines.append("  %-12s %s" % (name, metrics))
    stats = payload["statistics"]
    if stats["geomean_smartdimm_over_cpu"]:
        lines.append("  geomean smartdimm/cpu across targets: %.2fx (%s)"
                     % (stats["geomean_smartdimm_over_cpu"],
                        ", ".join(sorted(
                            stats["smartdimm_over_cpu_by_target"]))))
    lines.append(
        "  wall %.2fs at jobs=%d; %d/%d points from cache"
        % (timing["wall_s"], timing["jobs"], timing["points_from_cache"],
           timing["points_total"]))
    if result.gate_failures:
        lines.append("  GATES FAILED:")
        lines.extend("    " + failure for failure in result.gate_failures)
    else:
        lines.append("  gates: all passed")
    return "\n".join(lines)


__all__ = [
    "MatrixResult", "build_matrix", "matrix_to_json", "render",
    "run_matrix", "target_payload_json", "TARGETS",
]
