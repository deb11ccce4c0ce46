"""Cluster-simulator rows of the perf gate: the DES layer and the vector tier.

Each timed function builds one row's inputs and returns the
zero-argument operation that ``check_regression.py`` times against the
parent commit (see ``datapath_bench``):

* ``kernel_timeout`` — raw event-loop throughput: a self-rescheduling
  callback chain (one heap push + pop + dispatch per event).
* ``kernel_process`` — process-machinery throughput: a coroutine yielding
  delays (two events per sleep: the heap entry at the wake-up instant,
  then the resume from the ready lane; no ``Event`` allocated).
* ``scenario_closed_tls`` — a closed-loop TLS scenario (the CLI's default
  shape, scaled down).
* ``scenario_open_spill`` — the saturated-DSA bursty scenario with the
  adaptive-spill scheduler (the telemetry-heavy path: histograms,
  backlog accounting, spill decisions).
* ``fleet_vector`` — the vector fleet tier alone on the fleet-scale
  burst-overload spill scenario, with the batch arrival stream.

:func:`tier_crosscheck` is a same-run check, not a timed row: the same
spill scenario through :func:`repro.cluster.vector.crosscheck_tiers`
(replay arrivals, so both tiers consume identical RNG draws).  A fast
tier that no longer matches the kernel is not a speed-up.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cluster import ClusterScenario, run_scenario
from repro.cluster.kernel import Simulator
from repro.cluster.vector import crosscheck_tiers, run_vector_scenario

KERNEL_EVENTS = 120_000

CLOSED_TLS = ClusterScenario(
    servers=2, channels=6, connections=256, ulp="tls",
    message_bytes=16384, scheduler="least-loaded",
    duration_s=0.006, warmup_s=0.001, seed=1,
)

OPEN_SPILL = ClusterScenario(
    servers=2, channels=4, ulp="deflate", placement="smartdimm",
    message_bytes=16384, mode="open", arrival="bursty",
    rate_rps=100e3, burst_rps=160e3, base_s=0.008, burst_s=0.014,
    dsa_bytes_per_sec=300e6, scheduler="adaptive-spill",
    duration_s=0.03, warmup_s=0.004, seed=7,
)

#: A 4x per-server scale-up of OPEN_SPILL (same per-channel service time,
#: same burst duty cycle) driven past DSA capacity during bursts, so the
#: adaptive-spill rule fires thousands of times.  At 1 ms epochs the
#: cohorts are large enough (~550 requests) that the vector tier's fixed
#: per-cohort cost amortises to nothing.
FLEET_SPILL = ClusterScenario(
    servers=2, channels=8, threads=32, ulp="deflate",
    placement="smartdimm", message_bytes=16384, mode="open",
    arrival="bursty", rate_rps=800e3, burst_rps=1280e3,
    base_s=0.008, burst_s=0.014, dsa_bytes_per_sec=600e6,
    scheduler="adaptive-spill",
    duration_s=0.12, warmup_s=0.018, seed=7, epoch_s=0.001,
)


def kernel_timeout(events: int = KERNEL_EVENTS):
    """Pure heap throughput: one event per scheduled callback."""

    def op():
        sim = Simulator(seed=0)
        remaining = [events]

        def tick(_):
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.schedule(1e-6, tick)

        sim.schedule(1e-6, tick)
        return sim.run()

    return op


def kernel_process(iterations: int = KERNEL_EVENTS // 2):
    """Coroutine machinery: each loop is one sleep, which is two events."""

    def worker():
        for _ in range(iterations):
            yield 1e-6

    def op():
        sim = Simulator(seed=0)
        sim.spawn(worker())
        return sim.run()

    return op


def scenario_closed_tls():
    return lambda: run_scenario(CLOSED_TLS)


def scenario_open_spill():
    return lambda: run_scenario(OPEN_SPILL)


def fleet_vector():
    scenario = replace(FLEET_SPILL, tier="vector", arrival_stream="batch")
    return lambda: run_vector_scenario(scenario)


def tier_crosscheck(latency_l1_bound: float, count_rel_tol: float) -> tuple:
    """Same-run check: the tiers' counters agree within `count_rel_tol`
    and their latency histograms within an L1 of `latency_l1_bound` of
    the event tier's samples.  Returns (passed, detail)."""
    verdict = crosscheck_tiers(FLEET_SPILL, count_rel_tol=count_rel_tol,
                               bucket_frac_tol=latency_l1_bound)
    counts = verdict["counts"]
    return verdict["passed"], "latency L1 %.3f; %s" % (
        verdict["latency_bucket_l1_frac"],
        ", ".join("%s %+d" % (name, entry["delta"])
                  for name, entry in counts.items()))
