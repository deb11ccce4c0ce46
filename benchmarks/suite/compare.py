"""Compare benchmark runs of a parent commit and a change.

    python3 benchmarks/suite/compare.py --parent P1.json P2.json ... \\
        --change C1.json C2.json ...

Each file is what ``run.py --json-out`` wrote.  Runs pair up per
workload in the order given (parent run i with change run i); run the
pairs alternating which side goes first.  For every workload and
end-to-end metric of ``BENCHMARK.json`` this prints each side's median
and quartiles, the share of pairs the change won, and a verdict:

* ``REGRESSION`` -- the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved`` -- the parent's own runs spread (third minus first
  quartile, over the median) wider than the bound, and not every change
  run beat every parent run;
* ``gain`` -- at least 10 pairs, the change won at least nine tenths of
  them, and the medians differ by more than the parent's spread;
* ``within bound`` -- otherwise.

It also flags a workload whose ``sim_digest`` changed at a seed both
sides ran, and compares failed checks over checks made (``fail_frac``).
The exit code is 1 when any row is a regression or unresolved, or when
the change fails a larger share of its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                         "BENCHMARK.json")

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(paths: list) -> dict:
    """Untraced and traced results per workload, in file order."""
    runs = {}
    for path in paths:
        with open(path) as handle:
            for result in json.load(handle):
                runs.setdefault(result["workload"], []).append(result)
    return runs


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare_metric(parent: list, change: list, bound: float,
                   lower_is_better: bool) -> dict:
    """One workload x metric row of the rule above."""
    sign = 1.0 if lower_is_better else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (p - c) > 0)
    worse_by = sign * (c_med - p_med) / p_med
    spread = (p_q3 - p_q1) / p_med
    beats_all = all(sign * (p - c) > 0 for p in parent for c in change)
    if spread > bound and not beats_all:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "REGRESSION"
    elif (len(pairs) >= MIN_PAIRS and won >= WIN_SHARE * len(pairs)
          and -worse_by > spread):
        verdict = "gain"
    else:
        verdict = "within bound"
    return {"parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
            "pairs": len(pairs), "won": won, "worse_by": worse_by,
            "parent_spread": spread, "verdict": verdict}


def fail_frac(results: list) -> float:
    attempted = sum(result["attempted"] for result in results)
    return sum(result["failed"] for result in results) / max(1, attempted)


def digest_changed(parent: list, change: list) -> bool:
    before = {result["seed"]: result["sim_digest"] for result in parent}
    return any(result["seed"] in before
               and before[result["seed"]] != result["sim_digest"]
               for result in change)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    with open(BENCHMARK) as handle:
        metrics = json.load(handle)["end_to_end"]
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    status = 0
    header = "%-14s %-12s %33s %33s %7s %8s  %s" % (
        "workload", "metric", "parent q1/median/q3", "change q1/median/q3",
        "won", "worse", "verdict")
    for workload in sorted(set(parent_runs) & set(change_runs)):
        parent_all, change_all = parent_runs[workload], change_runs[workload]
        parent = [r for r in parent_all if not r["trace"]]
        change = [r for r in change_all if not r["trace"]]
        print(header)
        for metric in metrics if parent and change else ():
            name = metric["name"]
            row = compare_metric(
                [r["metrics"][name]["value"] for r in parent],
                [r["metrics"][name]["value"] for r in change],
                metric["bound"], metric["better"] == "lower")
            print("%-14s %-12s %33s %33s %3d/%-3d %+7.1f%%  %s" % (
                workload, name,
                "/".join("%.4g" % v for v in row["parent"]),
                "/".join("%.4g" % v for v in row["change"]),
                row["won"], row["pairs"], 100 * row["worse_by"],
                row["verdict"]))
            if row["verdict"] in ("REGRESSION", "unresolved"):
                status = 1
        if min(len(parent), len(change)) < MIN_PAIRS:
            print("%-14s only %d pairs; a gain needs at least %d"
                  % (workload, min(len(parent), len(change)), MIN_PAIRS))
        before, after = fail_frac(parent_all), fail_frac(change_all)
        print("%-14s fail_frac parent %.4f change %.4f%s" % (
            workload, before, after, "  MORE FAILURES" if after > before
            else ""))
        if after > before:
            status = 1
        if digest_changed(parent_all, change_all):
            print("%-14s sim_digest changed: the simulated results differ"
                  % workload)
        print()
    return status


if __name__ == "__main__":
    sys.exit(main())
