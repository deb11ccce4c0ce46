"""Run one benchmark workload in this process and print its result.

``run.py`` starts this script once per workload run, plus several
``--probe`` runs before it.  Each is a fresh interpreter, so a probe pays
exactly the imports and construction a user of the program pays.

* ``--probe``: time set-up once (program imports, then one operation on
  fresh program objects; generating that operation's input is excluded)
  and print ``{"setup_s": ...}``.
* ``--trace 0``: warm up, then run passes for ``--seconds`` (at least
  three), check every output and print the end-to-end metrics: CPU times
  rescaled to reference speed (see ``workloads.py``), each operation's
  and the pass's best over the passes.
* ``--trace 1``: half the time untraced, then install the per-layer
  tracer and spend the other half traced; print the per-layer metrics,
  with ``trace.overhead_frac`` from the two halves, and write the kept
  spans as a Chrome trace under ``out/``.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter, process_time

import layers
import workloads as suite

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

#: Passes a measured run makes at least, so its passes can be compared.
MIN_PASSES = 3

#: Calibration samples a probe takes after its set-up.
CALIBRATIONS_PER_PROBE = 20


def probe(workload, seed, scale: float) -> float:
    """Seconds of one set-up: imports, construction and one operation,
    in CPU time at reference speed."""
    start = process_time()
    workload.imports()
    imported = process_time()
    one = workload.warmup(workload.inputs(seed, scale))
    generated = process_time()
    result = workload.run_pass(one, suite.Recorder())
    done = process_time()
    taken = [sample for _, sample in result.calibrations]
    cpu_s = (imported - start) + (done - generated) - sum(taken)
    samples = taken + [suite.calibration_s()
                       for _ in range(CALIBRATIONS_PER_PROBE)]
    return cpu_s * suite.REFERENCE_CALIBRATION_S / min(samples)


def run_passes(workload, inputs, seconds: float, min_passes: int,
               tracer=None) -> list:
    """Run whole passes until the next one would end past ``seconds``."""
    passes, walls = [], []
    start = perf_counter()
    while True:
        began = perf_counter()
        result = workload.run_pass(inputs, suite.Recorder(tracer))
        walls.append(perf_counter() - began)
        result.seal()
        if passes:
            result.outputs = None    # only the first pass's are checked
        passes.append(result)
        elapsed = perf_counter() - start
        if (len(passes) >= min_passes
                and elapsed + statistics.median(walls) > seconds):
            return passes


def at_reference_speed(result) -> tuple:
    """(op times, time outside them) of one pass, at reference speed.

    Each operation is scaled by the faster of the calibration samples
    just before and after it: interference only ever adds time, so the
    faster sample is the better estimate of the speed the op ran at.
    """
    reference = suite.REFERENCE_CALIBRATION_S
    fastest_at = {}    # ops done before the sample -> fastest sample there
    for position, sample in result.calibrations:
        fastest_at[position] = min(sample, fastest_at.get(position, sample))
    ops = [cpu * reference / min(fastest_at[index], fastest_at[index + 1])
           for index, cpu in enumerate(result.op_cpu_s)]
    rest = max(0.0, result.cpu_s - sum(result.op_cpu_s))
    fastest = min(sample for _, sample in result.calibrations)
    return ops, rest * reference / fastest


def best_of(passes: list) -> tuple:
    """Each operation's best time over ``passes``, and the pass time they
    add up to (with the best time spent outside operations).

    The passes repeat the same operations in the same order, so the best
    of each filters out the time a busy machine added to some of them.
    """
    scaled = [at_reference_speed(p) for p in passes]
    count = min(len(ops) for ops, _ in scaled)
    best_ops = [min(ops[index] for ops, _ in scaled)
                for index in range(count)]
    return best_ops, sum(best_ops) + min(rest for _, rest in scaled)


def check(workload, inputs, passes: list) -> suite.Checks:
    """Reference checks on the first pass; every later pass must match it."""
    checks = suite.Checks()
    workload.check(inputs, passes[0], checks)
    for index, later in enumerate(passes[1:], start=2):
        checks.expect(later.digest == passes[0].digest,
                      "pass %d: sim_digest differs from pass 1" % index)
    return checks


def percentile(values: list, q: float) -> float:
    """The ``q`` quantile, interpolated between the closest samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1]


def end_to_end(passes: list) -> dict:
    ops, pass_s = best_of(passes)
    return {
        "pass_cpu_s": pass_s,
        "op_cpu_ms_p50": 1e3 * statistics.median(ops),
        "op_cpu_ms_p90": 1e3 * percentile(ops, 0.90),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, workload, inputs, untraced: list,
              traced: list) -> dict:
    passes = untraced + traced
    metrics = {}
    for layer in layers.layer_names():
        metrics[layer + ".self_frac"] = (tracer.self_s.get(layer, 0.0)
                                         / tracer.root_s)
        metrics[layer + ".calls"] = tracer.calls.get(layer, 0) / len(traced)
    events = tracer.results.get("kernel", 0)
    metrics["kernel.events"] = events / len(traced)
    kernel_s = tracer.inclusive_s.get("kernel", 0.0)
    metrics["kernel.events_per_s"] = events / kernel_s if kernel_s else 0.0
    metrics["trace.overhead_frac"] = (best_of(traced)[1]
                                      / best_of(untraced)[1] - 1.0)
    metrics["host.calibration_ms"] = 1e3 * statistics.median(
        sample for p in passes for _, sample in p.calibrations)
    metrics.update(workload.counts(inputs, untraced[0]))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    workload = suite.WORKLOADS[args.workload]
    # Input generators take an int seed; only the matrix gives "no seed" a
    # meaning of its own (every target's default seed).
    seed = args.seed
    if seed is None and workload is not suite.Matrix:
        seed = 1

    if args.probe:
        print(json.dumps({"setup_s": probe(workload, seed, args.scale)}))
        return 0

    workload.imports()
    inputs = workload.inputs(seed, args.scale)
    workload.run_pass(workload.warmup(inputs), suite.Recorder())
    trace_file = None
    if args.trace:
        untraced = run_passes(workload, inputs, args.seconds / 2, 1)
        tracer = layers.LayerTracer()
        layers.install(tracer)
        traced = run_passes(workload, inputs, args.seconds / 2, 1, tracer)
        passes = untraced + traced
        metrics = per_layer(tracer, workload, inputs, untraced, traced)
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_file = os.path.join(OUT_DIR, "trace-%s-%s.json" % (
            workload.name,
            "default" if args.seed is None else "seed%d" % args.seed))
        tracer.write_chrome_trace(trace_file, workload.name)
    else:
        passes = run_passes(workload, inputs, args.seconds, MIN_PASSES)
        metrics = end_to_end(passes)
    checks = check(workload, inputs, passes)
    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "ops": sum(len(p.op_cpu_s) for p in passes),
        "checks": checks.made,
        "failures": checks.failures,
        "errors": [error for p in passes for error in p.errors],
        "sim_digest": passes[0].digest,
        "calibration_ms": 1e3 * statistics.median(
            sample for p in passes for _, sample in p.calibrations),
        "trace_file": trace_file,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
