"""Cluster-simulator performance benchmarks.

Times the DES layer itself — the thing later scaling PRs will lean on —
and emits ``BENCH_cluster.json`` next to this file so
``check_regression.py`` can gate kernel slowdowns the same way it gates
datapath throughput:

* ``kernel_timeout`` — raw event-loop throughput: a self-rescheduling
  callback chain (one heap push + pop + dispatch per event).
* ``kernel_process`` — process-machinery throughput: a coroutine yielding
  delays (two events per sleep: the heap entry at the wake-up instant,
  then the resume from the ready lane; no ``Event`` allocated).
* ``scenario_closed_tls`` — end-to-end wall time of a closed-loop TLS
  scenario (the CLI's default shape, scaled down).
* ``scenario_open_spill`` — end-to-end wall time of the saturated-DSA
  bursty scenario with the adaptive-spill scheduler (the telemetry-heavy
  path: histograms, backlog accounting, spill decisions).
* ``fleet_vector`` — the vector fleet tier vs the event kernel on the
  fleet-scale burst-overload spill scenario: one timed event-tier run,
  best-of-N vector-tier runs (batch arrival stream), and the resulting
  ``speedup_vs_des`` / effective events/sec.  ``check_regression.py``'s
  machine-relative ``fleetvec`` gate requires the speedup to stay >= 20x.
* ``vector_crosscheck`` — the same scenario through
  :func:`repro.cluster.vector.crosscheck_tiers` (replay arrivals, so the
  tiers consume identical RNG draws): counter deltas and the latency-
  histogram L1 distance, with ``passed`` as the recorded verdict.

Scenario event counts are deterministic (seeded DES), so events/sec and
wall time move together; both are recorded, wall time is what the gate
reads.  Timing is best-of-N: the gate guards >20% regressions, not a
statistical claim.
"""

from __future__ import annotations

import json
import os
import time

from repro.cluster import ClusterScenario, run_scenario
from repro.cluster.kernel import Simulator

RESULTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "BENCH_cluster.json")

KERNEL_EVENTS = 120_000


def _best_of(repeats, fn):
    best = None
    for _ in range(repeats):
        value = fn()
        if best is None or value["wall_s"] < best["wall_s"]:
            best = value
    return best


def bench_kernel_timeout(events: int = KERNEL_EVENTS) -> dict:
    """Pure heap throughput: one event per scheduled callback."""
    sim = Simulator(seed=0)
    remaining = {"n": events}

    def tick(_):
        remaining["n"] -= 1
        if remaining["n"] > 0:
            sim.schedule(1e-6, tick)

    sim.schedule(1e-6, tick)
    start = time.perf_counter()
    processed = sim.run()
    wall = time.perf_counter() - start
    return {"events": processed, "wall_s": wall, "events_per_sec": processed / wall}


def bench_kernel_process(iterations: int = KERNEL_EVENTS // 2) -> dict:
    """Coroutine machinery: each loop is one sleep, which is two events —
    the heap entry firing at the wake-up instant, which posts the resume
    onto the ready lane, then the process resume itself."""
    sim = Simulator(seed=0)

    def worker(count):
        for _ in range(count):
            yield 1e-6

    sim.spawn(worker(iterations))
    start = time.perf_counter()
    processed = sim.run()
    wall = time.perf_counter() - start
    return {"events": processed, "wall_s": wall, "events_per_sec": processed / wall}


def _scenario_entry(scenario: ClusterScenario) -> dict:
    start = time.perf_counter()
    report = run_scenario(scenario)
    wall = time.perf_counter() - start
    return {
        "events": report.events_processed,
        "completed": report.completed,
        "wall_s": wall,
        "events_per_sec": report.events_processed / wall,
    }


def bench_scenario_closed_tls() -> dict:
    return _scenario_entry(ClusterScenario(
        servers=2, channels=6, connections=256, ulp="tls",
        message_bytes=16384, scheduler="least-loaded",
        duration_s=0.006, warmup_s=0.001, seed=1,
    ))


def bench_scenario_open_spill() -> dict:
    return _scenario_entry(ClusterScenario(
        servers=2, channels=4, ulp="deflate", placement="smartdimm",
        message_bytes=16384, mode="open", arrival="bursty",
        rate_rps=100e3, burst_rps=160e3, base_s=0.008, burst_s=0.014,
        dsa_bytes_per_sec=300e6, scheduler="adaptive-spill",
        duration_s=0.03, warmup_s=0.004, seed=7,
    ))


def _fleet_spill_scenario() -> ClusterScenario:
    """The fleet-scale burst-overload spill scenario both vector sections
    run: a 4x per-server scale-up of ``scenario_open_spill`` (same
    per-channel service time, same burst duty cycle) driven past DSA
    capacity during bursts so the adaptive-spill rule fires thousands of
    times.  At 1 ms epochs the cohorts are large enough (~550 requests)
    that the vector tier's fixed per-cohort cost amortises to nothing."""
    return ClusterScenario(
        servers=2, channels=8, threads=32, ulp="deflate",
        placement="smartdimm", message_bytes=16384, mode="open",
        arrival="bursty", rate_rps=800e3, burst_rps=1280e3,
        base_s=0.008, burst_s=0.014, dsa_bytes_per_sec=600e6,
        scheduler="adaptive-spill",
        duration_s=0.12, warmup_s=0.018, seed=7, epoch_s=0.001,
    )


def bench_fleet_vector(repeats: int = 3) -> dict:
    """Vector tier vs event kernel on the fleet spill scenario.

    The event tier is timed once (its ~6 s wall has low relative noise);
    the vector tier takes the best of `repeats` runs with the batch
    arrival stream (the headline configuration — replay's per-request
    Python RNG loop is an arrival-generation benchmark, not a tier one).
    ``effective_events_per_sec`` is the event tier's event count over the
    vector tier's wall: the DES-equivalent work rate the vector tier
    sustains.
    """
    from dataclasses import replace

    from repro.cluster.vector import run_vector_scenario

    scenario = _fleet_spill_scenario()
    start = time.perf_counter()
    event_report = run_scenario(scenario)
    event_wall = time.perf_counter() - start
    vector_scenario = replace(scenario, tier="vector",
                              arrival_stream="batch")
    vector_wall, vector_report = None, None
    for _ in range(repeats):
        start = time.perf_counter()
        vector_report = run_vector_scenario(vector_scenario)
        wall = time.perf_counter() - start
        if vector_wall is None or wall < vector_wall:
            vector_wall = wall
    return {
        "epoch_s": scenario.epoch_s,
        "event_wall_s": event_wall,
        "event_events": event_report.events_processed,
        "event_completed": event_report.completed,
        "event_spilled": event_report.spilled,
        "vector_wall_s": vector_wall,
        "vector_completed": vector_report.completed,
        "speedup_vs_des": event_wall / vector_wall,
        "effective_events_per_sec": event_report.events_processed / vector_wall,
        # keep the shared-schema fields so generic tooling can read this row
        "events": event_report.events_processed,
        "wall_s": vector_wall,
        "events_per_sec": event_report.events_processed / vector_wall,
    }


def bench_vector_crosscheck() -> dict:
    """Tier-agreement verdict on the fleet spill scenario (replay stream)."""
    from repro.cluster.vector import crosscheck_tiers

    verdict = crosscheck_tiers(_fleet_spill_scenario(),
                               count_rel_tol=0.10, bucket_frac_tol=0.5)
    counts = {name: {k: entry[k] for k in ("event", "vector", "delta")}
              for name, entry in verdict["counts"].items()}
    return {
        "passed": verdict["passed"],
        "counts": counts,
        "latency_bucket_l1_frac": verdict["latency_bucket_l1_frac"],
        "latency_bucket_tol": verdict["latency_bucket_tol"],
        "event_events_processed": verdict["event_events_processed"],
        "vector_events_processed": verdict["vector_events_processed"],
    }


def bench_all(repeats: int = 3) -> dict:
    return {
        "kernel_timeout": _best_of(repeats, bench_kernel_timeout),
        "kernel_process": _best_of(repeats, bench_kernel_process),
        "scenario_closed_tls": _best_of(repeats, bench_scenario_closed_tls),
        "scenario_open_spill": _best_of(repeats, bench_scenario_open_spill),
        "fleet_vector": bench_fleet_vector(repeats),
        "vector_crosscheck": bench_vector_crosscheck(),
    }


def write_results(results: dict, path: str = RESULTS_PATH) -> str:
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def main() -> int:
    results = bench_all()
    for section, entry in sorted(results.items()):
        if section == "vector_crosscheck":
            print("%-22s passed=%s  latency L1 %.3f (tol %.2f)"
                  % (section, entry["passed"],
                     entry["latency_bucket_l1_frac"],
                     entry["latency_bucket_tol"]))
            continue
        print("%-22s %8.0fk events/s  (%.3fs wall, %d events)"
              % (section, entry["events_per_sec"] / 1e3, entry["wall_s"],
                 entry["events"]))
        if section == "fleet_vector":
            print("%22s %.1fx vs DES (event %.2fs, vector %.3fs)"
                  % ("", entry["speedup_vs_des"], entry["event_wall_s"],
                     entry["vector_wall_s"]))
    path = write_results(results)
    print("wrote", path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
