"""Perf-regression gate: every timed row against the parent commit, same box.

    PYTHONPATH=src python benchmarks/perf/check_regression.py [--parent REV]

The parent is ``HEAD`` when tracked files differ from it, else
``HEAD~1``; ``--parent`` names any other revision.  Its ``src/`` is
exported with ``git archive`` into a temporary directory, and this
checkout's bench code (``datapath_bench``, ``cluster_bench``) runs
against each tree in fresh processes: ``PAIRS`` pairs, alternating which
side runs first.  A process times each row's operation with
``time.process_time``: after two warm-up calls, the least of ``REPEATS``
samples taken in rounds over all rows, each sample as many calls as
fill ``SAMPLE_S``.  Each row is judged by ``compare_metric`` of
``benchmarks/suite/compare.py`` on those per-process readings, with the
row's bound: ``REGRESSION`` when the change's median CPU time is worse
than the parent's by more than the bound, ``unresolved`` when the
parent's own readings spread wider than the bound.  Either fails the
gate.  A row the parent's tree cannot run (an API it lacks) is printed
and not compared; a row the working tree cannot run fails.

Three same-run checks read the working tree alone, in this process: the
vector-vs-event tier crosscheck, the disabled fault-hook overhead and
the run-pool speed-up of the quick matrix (``matrix3x``, skipped below 4
cores).

``ROWS`` below is the whole gate, each row with its bound; ``--list``
prints it and ``--skip-<group>`` drops a group.  Exit codes: 0 pass,
1 a regressed, unresolved or failing row, 2 no parent tree (git failed).

The simulated results of every figure family are not timed here: they
are deterministic, so ``python -m repro matrix --check`` compares them
byte-for-byte against the committed ``BENCH_<target>.json`` baselines at
the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import partial

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(REPO, "benchmarks", "suite"))

import cluster_bench  # noqa: E402
import datapath_bench  # noqa: E402
import faults_bench  # noqa: E402
import matrix_bench  # noqa: E402
from compare import compare_metric  # noqa: E402

#: Parent/change pairs of fresh processes, and timed samples per row in
#: each.  A sample repeats the row's operation until it lasts about
#: SAMPLE_S of CPU: read from single calls, a 1 ms row's fresh processes
#: ranged over 75% of their median; in 20 ms samples, over 25%.  Load
#: elsewhere on a shared machine slows whole stretches of a run (a busy
#: loop's rate swung by 40% from one half-second to the next), so a
#: side's third quartile needs three slow processes of ten to move,
#: where two of six moved it past the bound.
PAIRS = 10
REPEATS = 5
SAMPLE_S = 0.02

#: Allowed relative slowdown of a timed row's median CPU time.
TIMED_BOUND = 0.20


@dataclass(frozen=True)
class Row:
    """One row of the gate.  A timed row has `op`, which builds the
    operation to time (paired against the parent, `bound` the allowed
    slowdown); a same-run check has `check`, which takes `bound` and
    returns (passed, detail), passed None when skipped."""

    name: str
    group: str  # also spells the --skip-<group> flag
    bound: float
    op: callable = None
    check: callable = None


def _timed(group, name, build, *args):
    return Row(name, group, TIMED_BOUND, op=partial(build, *args))


ROWS = (
    *(_timed("datapath", "%s/%d" % (build.__name__, size), build, size)
      for build in (datapath_bench.aes_gcm_encrypt, datapath_bench.ghash,
                    datapath_bench.deflate, datapath_bench.compcpy_e2e)
      for size in datapath_bench.SIZES),
    _timed("datapath", "deflate_dsa", datapath_bench.deflate_dsa),
    _timed("datapath", "inflate", datapath_bench.inflate),
    _timed("cluster", "kernel_timeout", cluster_bench.kernel_timeout),
    _timed("cluster", "kernel_process", cluster_bench.kernel_process),
    _timed("cluster", "scenario_closed_tls", cluster_bench.scenario_closed_tls),
    _timed("cluster", "scenario_open_spill", cluster_bench.scenario_open_spill),
    _timed("cluster", "fleet_vector", cluster_bench.fleet_vector),
    # The bound is the latency-histogram L1 of the vector tier against the
    # event tier; their counters must agree within 10%.
    Row("tier_crosscheck", "cluster", 0.5,
        check=partial(cluster_bench.tier_crosscheck, count_rel_tol=0.10)),
    Row("disabled_hook_overhead", "faults", 0.02,
        check=faults_bench.disabled_hook_overhead),
    Row("matrix3x", "matrix3x", 3.0, check=matrix_bench.matrix3x),
)
GROUPS = tuple(dict.fromkeys(row.group for row in ROWS))


def measure(names, repeats: int = REPEATS) -> dict:
    """CPU seconds per call of each named timed row, in this process: the
    least of `repeats` samples.  Each row first runs two warm-up calls,
    the second of which sizes its samples; then `repeats` rounds take one
    sample of every row, so a row's samples spread over the whole process
    and a burst of load elsewhere on the machine spoils at most a few of
    them.  A row whose set-up or warm-up raises reads as its error
    message instead."""
    rows = {row.name: row for row in ROWS}
    readings, ops = {}, {}
    for name in names:
        try:
            op = rows[name].op()
            op()  # one-time work: tables, caches
            start = time.process_time()
            op()
            calls = max(1, int(SAMPLE_S / max(time.process_time() - start, 1e-6)))
            ops[name] = op, calls
        except Exception as exc:  # reported per row, judged by the caller
            readings[name] = "%s: %s" % (type(exc).__name__, exc)
    for _ in range(repeats):
        for name, (op, calls) in ops.items():
            gc.collect()
            start = time.process_time()
            for _ in range(calls):
                op()
            elapsed = (time.process_time() - start) / calls
            readings[name] = min(readings.get(name, elapsed), elapsed)
    return readings


def _child() -> None:
    """Entry of a fresh measuring process: argv is the repeat count, then
    the rows to measure."""
    import repro

    repeats, *names = sys.argv[1:]
    print(json.dumps({"repro": repro.__file__,
                      "rows": measure(names, int(repeats))}))


def run_side(tree: str, names, repeats: int = REPEATS) -> dict:
    """Measure `names` in a fresh interpreter importing `tree`'s src.  A
    process that dies (the bench modules import a name `tree` lacks)
    reads as its last error line for every row."""
    src = os.path.join(tree, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, HERE]),
               PYTHONHASHSEED="0", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", "import check_regression; check_regression._child()",
         str(repeats), *names],
        env=env, cwd=HERE, capture_output=True, text=True)
    if proc.returncode:
        lines = proc.stderr.strip().splitlines() or ["exit %d" % proc.returncode]
        return {name: lines[-1] for name in names}
    result = json.loads(proc.stdout.splitlines()[-1])
    if os.path.commonpath([result["repro"], src]) != src:
        raise RuntimeError("%s imported repro from %s" % (tree, result["repro"]))
    return result["rows"]


def _git(*args) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", REPO, *args], capture_output=True)


def default_parent() -> str:
    """``HEAD`` when tracked files differ from it, else ``HEAD~1``."""
    return "HEAD" if _git("diff", "--quiet", "HEAD", "--").returncode else "HEAD~1"


def export_src(rev: str, dest: str) -> None:
    """Write `rev`'s ``src/`` tree under `dest` with ``git archive``."""
    archive = _git("archive", rev, "src")
    if archive.returncode:
        raise RuntimeError(archive.stderr.decode().strip())
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)


#: Verdicts that fail the gate; "no parent reading" leaves a row uncompared.
FAILING = ("REGRESSION", "unresolved", "ERROR")


def judge(row: Row, parent: list, change: list) -> tuple:
    """(verdict, printed columns) of one timed row's readings."""
    for verdict, readings in (("ERROR", change), ("no parent reading", parent)):
        errors = [r for r in readings if isinstance(r, str)]
        if errors:
            return verdict, errors[0]
    result = compare_metric(parent, change, row.bound, lower_is_better=True)
    return result["verdict"], "%26s %26s %5s %+7.1f%%" % (
        "/".join("%.3f" % (1e3 * v) for v in result["parent"]),
        "/".join("%.3f" % (1e3 * v) for v in result["change"]),
        "%d/%d" % (result["won"], result["pairs"]), 100 * result["worse_by"])


def main(argv=None) -> int:
    """CLI entry; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--parent", metavar="REV",
        help="revision to compare against (default: HEAD when tracked "
             "files differ from it, else HEAD~1)")
    for group in GROUPS:
        parser.add_argument("--skip-" + group, action="store_true",
                            help="skip the %s rows" % group)
    parser.add_argument("--list", action="store_true",
                        help="print the gate table and exit")
    args = parser.parse_args(argv)

    if args.list:
        print("%-24s %-9s %-6s %s" % ("row", "group", "bound", "kind"))
        for row in ROWS:
            print("%-24s %-9s %-6g %s" % (
                row.name, row.group, row.bound,
                "paired with the parent" if row.op else "same-run check"))
        return 0

    started = time.perf_counter()
    rows = [row for row in ROWS
            if not getattr(args, "skip_" + row.group)]
    timed = [row for row in rows if row.op]
    names = [row.name for row in timed]
    rev = args.parent or default_parent()
    label = _git("rev-parse", "--short", rev).stdout.decode().strip() or rev
    readings = {"parent": [], "change": []}
    if timed:
        with tempfile.TemporaryDirectory(prefix="perf-parent-") as parent_tree:
            try:
                export_src(rev, parent_tree)
            except (OSError, RuntimeError, subprocess.CalledProcessError) as exc:
                print("cannot export the parent's src (%s): %s" % (rev, exc))
                return 2
            trees = {"parent": parent_tree, "change": REPO}
            for pair in range(PAIRS):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    readings[side].append(run_side(trees[side], names))

    failed, uncompared = [], 0
    print("parent %s (%s) vs the working tree: %d pairs of fresh processes, "
          "CPU ms per call (least of %d samples), bound +%.0f%%"
          % (label, rev, PAIRS, REPEATS, 100 * TIMED_BOUND))
    print("%-24s %26s %26s %5s %8s  %s" % (
        "row", "parent q1/median/q3", "change q1/median/q3", "won", "worse",
        "verdict"))
    for row in timed:
        verdict, columns = judge(
            row, [r[row.name] for r in readings["parent"]],
            [r[row.name] for r in readings["change"]])
        print("%-24s %s  %s" % (row.name, columns, verdict))
        if verdict in FAILING:
            failed.append(row.name)
        uncompared += verdict == "no parent reading"
    for row in rows:
        if row.check is None:
            continue
        passed, detail = row.check(row.bound)
        verdict = "skipped" if passed is None else "pass" if passed else "FAIL"
        print("%-24s bound %-5g %s  %s" % (row.name, row.bound, verdict, detail))
        if passed is False:
            failed.append(row.name)
    elapsed = time.perf_counter() - started
    if failed:
        print("PERF REGRESSION against %s: %s (%.0f s)"
              % (label, ", ".join(failed), elapsed))
        return 1
    print("perf gate passed: %d of %d rows compared with %s, %d same-run "
          "checks (%.0f s)" % (len(timed) - uncompared, len(timed), label,
                               len(rows) - len(timed), elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
