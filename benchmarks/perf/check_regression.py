"""Perf-regression gate for the wall-clock benches.

Each gate is one row in the declarative ``GATES`` table below (``--list``
prints the table).  Six rows:

* ``datapath`` — ``benchmarks/perf/BENCH_datapath.json`` throughput
  (``datapath_bench``): the ``after``-path MB/s per (section, size) must
  not drop more than ``--tolerance`` (default 20%).
* ``cluster`` — ``benchmarks/perf/BENCH_cluster.json`` simulator speed
  (``cluster_bench``): kernel events/sec must not drop, and end-to-end
  scenario wall time must not grow, by more than the same tolerance.
* ``compcpy5x`` (machine-relative, no baseline): the 64 KB
  ``compcpy_e2e`` point must stay >= ``--compcpy-speedup-floor``
  (default 5x) above the recorded pre-fast-path seed throughput.
* ``fleetvec`` (machine-relative, no baseline): the vector fleet tier
  must stay >= ``--fleetvec-speedup-floor`` (default 20x) faster than the
  event kernel on the fleet-scale spill scenario, and its replay-stream
  crosscheck against the kernel must pass.
* ``faults`` (``faults_bench``, machine-relative, no baseline): the
  measured cost of the ``plan is not None`` guards on a plan-less session
  must stay under ``--faults-tolerance`` (default 2%) of one offload —
  the disabled fault path is required to be essentially free.
* ``matrix3x`` (machine-relative, no baseline): the experiment-matrix
  run-pool (``matrix_bench``) must keep the pooled quick matrix >=
  ``--matrix-speedup-floor`` (default 3x) faster than the serial run
  with byte-identical payloads; auto-skips below 4 cores.

The simulated results of every figure family are not timed here: they
are deterministic, so ``python -m repro matrix --check`` compares them
byte-for-byte against the committed ``BENCH_<target>.json`` baselines at
the repository root and each matrix target's own gate rows judge them.

``--jobs N`` evaluates gate rows concurrently in N threads (output stays
in table order); the wall-clock-sensitive rows get noisier as N grows,
so keep ``--jobs 1`` when a timing row is near its floor.

Any regression fails the gate with exit code 1 — use it in CI or before
merging changes to any layer::

    PYTHONPATH=src python benchmarks/perf/check_regression.py

Absolute wall times vary across machines; throughput *ratios* between a
fresh run and a baseline recorded on the same machine are what the gate is
for.  ``--update`` rewrites the baselines from the fresh run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import cluster_bench
import datapath_bench
import faults_bench
import matrix_bench

#: Datapath sections whose `after_mbps` is guarded per record size.
GUARDED_SECTIONS = ("aes_gcm_encrypt", "ghash", "deflate", "compcpy_e2e")

#: Cluster sections -> (metric, direction); "min" guards a floor
#: (throughput must not drop), "max" a ceiling (wall time must not grow).
CLUSTER_GUARDS = {
    "kernel_timeout": ("events_per_sec", "min"),
    "kernel_process": ("events_per_sec", "min"),
    "scenario_closed_tls": ("wall_s", "max"),
    "scenario_open_spill": ("wall_s", "max"),
    "fleet_vector": ("speedup_vs_des", "min"),
}


def compare(baseline: dict, fresh: dict, tolerance: float) -> list:
    """Datapath regressions as human-readable strings (empty = pass)."""
    regressions = []
    for section in GUARDED_SECTIONS:
        for size, base_entry in baseline.get(section, {}).items():
            fresh_entry = fresh.get(section, {}).get(size)
            if fresh_entry is None:
                regressions.append("%s/%s: missing from fresh run" % (section, size))
                continue
            base_mbps = base_entry["after_mbps"]
            fresh_mbps = fresh_entry["after_mbps"]
            floor = (1.0 - tolerance) * base_mbps
            if fresh_mbps < floor:
                regressions.append(
                    "%s/%s B: %.2f MB/s < %.2f MB/s (baseline %.2f, -%.0f%%)"
                    % (
                        section,
                        size,
                        fresh_mbps,
                        floor,
                        base_mbps,
                        100.0 * (1.0 - fresh_mbps / base_mbps),
                    )
                )
    return regressions


def compare_cluster(baseline: dict, fresh: dict, tolerance: float) -> list:
    """Cluster-simulator regressions (empty = pass)."""
    regressions = []
    for section, (metric, direction) in sorted(CLUSTER_GUARDS.items()):
        base_entry = baseline.get(section)
        if base_entry is None:
            continue  # baseline predates this section; nothing to gate
        fresh_entry = fresh.get(section)
        if fresh_entry is None:
            regressions.append("%s: missing from fresh run" % section)
            continue
        base_value = base_entry[metric]
        fresh_value = fresh_entry[metric]
        if direction == "min" and fresh_value < (1.0 - tolerance) * base_value:
            regressions.append(
                "%s: %s %.0f < floor %.0f (baseline %.0f, -%.0f%%)"
                % (section, metric, fresh_value,
                   (1.0 - tolerance) * base_value, base_value,
                   100.0 * (1.0 - fresh_value / base_value))
            )
        elif direction == "max" and fresh_value > (1.0 + tolerance) * base_value:
            regressions.append(
                "%s: %s %.3f > ceiling %.3f (baseline %.3f, +%.0f%%)"
                % (section, metric, fresh_value,
                   (1.0 + tolerance) * base_value, base_value,
                   100.0 * (fresh_value / base_value - 1.0))
            )
    return regressions


def compare_compcpy_speedup(fresh: dict, floor: float) -> list:
    """Machine-relative 5x gate for the batched line-op fast path.

    ``speedup_vs_seed`` compares a fresh 64 KB compcpy_e2e run against the
    recorded pre-fast-path throughput (``SEED_COMPCPY_MBPS``), so the gate
    fails if the batched path's advantage erodes below the required floor.
    """
    entry = fresh.get("65536", {})
    speedup = entry.get("speedup_vs_seed")
    if speedup is None:
        return ["compcpy5x: no speedup_vs_seed for the 65536 B point"]
    if speedup < floor:
        return [
            "compcpy5x: 64 KB compcpy_e2e %.2fx vs seed < required %.1fx "
            "(%.2f MB/s vs seed %.2f MB/s)"
            % (speedup, floor, entry["after_mbps"], entry["seed_mbps"])
        ]
    return []


def compare_fleetvec(fresh: dict, floor: float) -> list:
    """Machine-relative 20x gate for the vector fleet tier.

    Times the event kernel and the vector tier on the same fleet-scale
    spill scenario in this run (no committed baseline — both walls come
    from the same machine moments apart), requires the speedup to hold
    the floor, and requires the replay-stream crosscheck to still pass —
    a fast tier that no longer matches the kernel is not a speedup.
    """
    perf = fresh["fleet_vector"]
    agree = fresh["vector_crosscheck"]
    regressions = []
    speedup = perf["speedup_vs_des"]
    if speedup < floor:
        regressions.append(
            "fleetvec: vector tier %.1fx vs DES < required %.1fx "
            "(event %.2fs, vector %.3fs)"
            % (speedup, floor, perf["event_wall_s"], perf["vector_wall_s"])
        )
    if not agree["passed"]:
        regressions.append(
            "fleetvec: tier crosscheck FAILED (latency L1 %.3f, tol %.2f)"
            % (agree["latency_bucket_l1_frac"], agree["latency_bucket_tol"])
        )
    return regressions


def compare_faults(fresh: dict, tolerance: float) -> list:
    """Machine-relative fault-hook gate: disabled guards must be free."""
    if fresh["overhead_fraction"] > tolerance:
        return [
            "fault hooks: %.2f%% disabled overhead > %.2f%% "
            "(%d guards/op x %.1f ns)"
            % (100 * fresh["overhead_fraction"], 100 * tolerance,
               fresh["hooks_per_op"], fresh["branch_ns"])
        ]
    return []


@dataclass(frozen=True)
class Gate:
    """One row of the regression gate: a bench run plus its verdict.

    `baseline_flag` names the CLI override for the committed baseline
    path; None marks a machine-relative gate (fresh run judged against
    itself, nothing committed, nothing for ``--update`` to rewrite).
    `points` receives the loaded baseline (None when machine-relative)
    and returns how many guarded values the gate covers.
    """

    name: str            # also spells the --skip-<name> flag
    describe: str        # one line for --list
    baseline_flag: str   # e.g. "--baseline"; None = machine-relative
    bench: object        # module providing write_results() for --update
    run: callable        # args -> fresh results dict
    verdict: callable    # (baseline, fresh, args) -> list of regressions
    points: callable     # baseline -> number of guarded values

    @property
    def baseline_dest(self):
        return (self.baseline_flag.lstrip("-").replace("-", "_")
                if self.baseline_flag else None)

    @property
    def baseline_name(self):
        return (os.path.basename(self.bench.RESULTS_PATH)
                if self.baseline_flag else "(machine-relative)")


#: The whole gate, declaratively.  Adding a bench = adding one row.
GATES = (
    Gate("datapath", "datapath throughput: after_mbps floors per section/size",
         "--baseline", datapath_bench,
         run=lambda args: datapath_bench.bench_all(repeats=args.repeats),
         verdict=lambda base, fresh, args: compare(base, fresh, args.tolerance),
         points=lambda base: sum(len(base.get(s, {})) for s in GUARDED_SECTIONS)),
    Gate("cluster", "cluster DES speed: events/sec floors, wall-time ceilings",
         "--cluster-baseline", cluster_bench,
         run=lambda args: cluster_bench.bench_all(repeats=args.repeats),
         verdict=lambda base, fresh, args: compare_cluster(base, fresh,
                                                           args.tolerance),
         points=lambda base: sum(1 for s in CLUSTER_GUARDS if s in base)),
    Gate("compcpy5x", "batched fast path keeps 64 KB compcpy_e2e >= 5x seed",
         None, datapath_bench,
         # Best-of-3 minimum: this is a ratio against a fixed seed number,
         # so it needs more noise immunity than the baseline-relative rows.
         run=lambda args: datapath_bench.bench_compcpy(
             sizes=(65536,), repeats=max(3, args.repeats)),
         verdict=lambda base, fresh, args: compare_compcpy_speedup(
             fresh, args.compcpy_speedup_floor),
         points=lambda base: 1),
    Gate("fleetvec", "vector fleet tier stays >= 20x the DES kernel + agrees",
         None, cluster_bench,
         run=lambda args: {
             "fleet_vector": cluster_bench.bench_fleet_vector(
                 repeats=max(3, args.repeats)),
             "vector_crosscheck": cluster_bench.bench_vector_crosscheck(),
         },
         verdict=lambda base, fresh, args: compare_fleetvec(
             fresh, args.fleetvec_speedup_floor),
         points=lambda base: 2),
    Gate("faults", "disabled fault hooks stay under --faults-tolerance",
         None, faults_bench,
         run=lambda args: faults_bench.bench_disabled_overhead(
             repeats=args.repeats),
         verdict=lambda base, fresh, args: compare_faults(
             fresh, args.faults_tolerance),
         points=lambda base: 1),
    Gate("matrix3x",
         "experiment matrix: pooled quick run >= 3x serial wall clock, "
         "byte-identical payloads (auto-skips below 4 cores)",
         None, matrix_bench,
         run=lambda args: matrix_bench.bench_matrix3x(),
         verdict=lambda base, fresh, args: matrix_bench.compare_matrix3x(
             fresh, args.matrix_speedup_floor),
         points=lambda base: 2),
)


def _load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _evaluate(gate: Gate, args) -> tuple:
    """Run one gate row; returns (regressions, points, notes, exit_code).

    Pure with respect to shared state (all output goes through ``notes``)
    so rows can be evaluated concurrently under ``--jobs N`` and printed
    back in table order.  ``exit_code`` is None unless the row demands an
    immediate non-regression exit (a required baseline is missing).
    """
    notes = []
    if getattr(args, "skip_" + gate.name):
        return [], 0, notes, None
    if gate.baseline_flag is None:
        if args.update:
            return [], 0, notes, None  # nothing committed to rewrite
        return gate.verdict(None, gate.run(args), args), gate.points(None), \
            notes, None
    path = getattr(args, gate.baseline_dest)
    fresh = gate.run(args)
    if args.update:
        notes.append("%s baseline updated: %s"
                     % (gate.name, gate.bench.write_results(fresh, path)))
        return [], 0, notes, None
    try:
        baseline = _load(path)
    except FileNotFoundError:
        notes.append("no %s baseline at %s; run with --update to create one"
                     % (gate.name, path))
        return [], 0, notes, 2
    return gate.verdict(baseline, fresh, args), gate.points(baseline), \
        notes, None


def main(argv=None) -> int:
    """CLI entry; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for gate in GATES:
        if gate.baseline_flag:
            parser.add_argument(
                gate.baseline_flag,
                default=gate.bench.RESULTS_PATH,
                help="%s baseline JSON (default: committed %s)"
                     % (gate.name, gate.baseline_name),
            )
        parser.add_argument(
            "--skip-" + gate.name, action="store_true",
            help="skip the %s gate" % gate.name,
        )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="allowed fractional regression (default 0.20)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats per point (default 3)"
    )
    parser.add_argument(
        "--compcpy-speedup-floor",
        type=float,
        default=5.0,
        help="required 64 KB compcpy_e2e speedup vs the recorded seed "
             "throughput (default 5.0)",
    )
    parser.add_argument(
        "--fleetvec-speedup-floor",
        type=float,
        default=20.0,
        help="required vector-tier speedup over the event kernel on the "
             "fleet spill scenario (default 20.0)",
    )
    parser.add_argument(
        "--faults-tolerance",
        type=float,
        default=0.02,
        help="allowed disabled-hook overhead fraction (default 0.02)",
    )
    parser.add_argument(
        "--matrix-speedup-floor",
        type=float,
        default=3.0,
        help="required pooled-vs-serial speedup for the quick experiment "
             "matrix (default 3.0; the row auto-skips below 4 cores)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="evaluate gate rows concurrently in N threads (default 1; "
             "wall-clock-sensitive rows get noisier as N grows, so keep "
             "--jobs 1 when a timing row is near its floor)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baselines from this run instead of gating",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the gate table and exit",
    )
    args = parser.parse_args(argv)

    if args.list:
        print("perf gates (--skip-<name> to skip one):")
        for gate in GATES:
            print("  %-9s %-22s %s"
                  % (gate.name, gate.baseline_name, gate.describe))
        return 0

    if args.jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(lambda g: _evaluate(g, args), GATES))
    else:
        outcomes = [_evaluate(gate, args) for gate in GATES]

    regressions, gated_points = [], 0
    for gate_regressions, points, notes, exit_code in outcomes:
        for note in notes:
            print(note)
        if exit_code is not None:
            return exit_code
        regressions += gate_regressions
        gated_points += points
    if args.update:
        return 0

    if regressions:
        print("PERF REGRESSION (tolerance %.0f%%):" % (100 * args.tolerance))
        for line in regressions:
            print("  " + line)
        return 1
    print(
        "perf gate passed: %d points within %.0f%% of baseline"
        % (gated_points, 100 * args.tolerance)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
