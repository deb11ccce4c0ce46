"""Run the repository benchmark: every metric by name, with its unit.

    python3 benchmarks/suite/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--json-out FILE]

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.
``--scale`` (smoke tests) shrinks the inputs and the measured time alike.

Each workload run is its own subprocess (``worker.py``: one process, one
thread, ``OMP_NUM_THREADS=1``), run one after another.  An untraced run
(``--trace 0``) first starts fresh set-up probes for ``setup_s``, then
reports the end-to-end metrics; a traced run (``--trace 1``) reports the
per-layer metrics.  Metric names and units come from ``BENCHMARK.json``
at the repository root.  The last line printed is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
0 only when every output check passed.

Without ``--seed`` the matrix keeps every target's own default seed (the
committed baselines apply) and the other workloads use seed 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKER = os.path.join(HERE, "worker.py")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

#: Timed set-up probes per untraced run; one more, untimed, runs first so
#: a fresh checkout's bytecode compilation is not counted as set-up.
PROBES = 7

#: A run must finish within this many seconds, probes included.
RUN_DEADLINE_S = 170.0


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    # Fixed string hashing: every process lays out its dicts alike.
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_worker(args: list, deadline: float) -> dict:
    """Run ``worker.py`` with ``args``; returns its last-line JSON."""
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise RuntimeError("no time left before the run deadline")
    completed = subprocess.run(
        [sys.executable, WORKER] + args, stdout=subprocess.PIPE,
        env=_child_env(), cwd=ROOT, timeout=timeout, check=False,
        text=True)
    if completed.returncode != 0:
        raise RuntimeError("worker %s exited with %d"
                           % (" ".join(args), completed.returncode))
    return json.loads(completed.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed, seconds: float, trace: int, scale: float,
                 specs: dict) -> dict:
    """Probe set-up (untraced runs), run the worker, attach units."""
    deadline = perf_counter() + RUN_DEADLINE_S
    common = ["--workload", name, "--scale", repr(scale)]
    if seed is not None:
        common += ["--seed", str(seed)]
    probes = []
    if not trace:
        for index in range(PROBES + 1):
            result = _run_worker(common + ["--probe"], deadline)
            if index:
                probes.append(result["setup_s"])
    result = _run_worker(common + ["--seconds", repr(seconds),
                                   "--trace", str(trace)], deadline)
    measured = dict(result["metrics"])
    if probes:
        measured["setup_s"] = statistics.median(probes)
    wanted = specs["per_layer" if trace else "end_to_end"]
    unknown = sorted(set(measured) - set(wanted))
    if unknown:
        raise RuntimeError("metrics missing from BENCHMARK.json: %s"
                           % ", ".join(unknown))
    if not trace:
        missing = sorted(set(wanted) - set(measured))
        if missing:
            raise RuntimeError("end-to-end metrics not measured: %s"
                               % ", ".join(missing))
    # A per-layer metric a workload never reaches (the vector tier's
    # epochs in tls_records, say) is reported as 0.
    result["metrics"] = {metric: {"value": measured.get(metric, 0),
                                  "unit": wanted[metric]}
                         for metric in wanted}
    result.update(seconds=seconds, scale=scale, setup_probes_s=probes,
                  attempted=result["checks"], failed=len(result["failures"]))
    result["correct"] = result["failed"] == 0
    return result


def render(result: dict) -> str:
    lines = ["%s seed=%s trace=%d: %d passes, %d ops, %d/%d checks failed"
             % (result["workload"], result["seed"], result["trace"],
                result["passes"], result["ops"], result["failed"],
                result["attempted"])]
    for name, metric in result["metrics"].items():
        lines.append("  %-32s %14.6g %s" % (name, metric["value"],
                                            metric["unit"]))
    lines.append("  sim_digest %s" % result["sim_digest"])
    if result["trace_file"]:
        lines.append("  chrome trace %s" % result["trace_file"])
    lines.extend("  FAILED: %s" % failure for failure in result["failures"])
    lines.extend("  error: %s" % error for error in result["errors"])
    return "\n".join(lines)


def main(argv=None) -> int:
    with open(BENCHMARK) as handle:
        benchmark = json.load(handle)
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark.")
    parser.add_argument("--workload", choices=workloads,
                        help="one workload (default: each in turn)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run, times --scale "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink each workload's inputs (smoke tests)")
    parser.add_argument("--json-out", help="write every result here")
    args = parser.parse_args(argv)
    if not 0.0 < args.scale <= 1.0:
        parser.error("--scale must be in (0, 1]")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: no program source at %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    specs = {kind: {metric["name"]: metric["unit"]
                    for metric in benchmark[kind]}
             for kind in ("end_to_end", "per_layer")}
    seconds = args.seconds or float(benchmark["run_seconds"])
    if seconds <= 0:
        parser.error("--seconds must be positive")
    seconds *= args.scale

    results = []
    for name in [args.workload] if args.workload else workloads:
        try:
            result = run_workload(name, args.seed, seconds, args.trace,
                                  args.scale, specs)
        except (RuntimeError, subprocess.TimeoutExpired) as error:
            print("error: %s: %s" % (name, error), file=sys.stderr)
            return 2
        results.append(result)
        print(render(result), flush=True)
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
    for result in results:
        print(json.dumps({key: result[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
