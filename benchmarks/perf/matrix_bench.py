"""Machine-relative speedup bench for the experiment-matrix run-pool.

Runs the full ``--quick`` matrix twice on this machine — serially
(``jobs=1``, inline execution, zero pool overhead) and through the
``multiprocessing`` pool — with the result cache disabled, and reports
the wall-clock ratio plus whether the two payloads are byte-identical.
Both walls come from the same machine moments apart, so the ratio is
what the ``matrix3x`` same-run check of ``check_regression.py`` guards
(parallel must stay >= 3x serial on a >= 4-core box, and parallel output
must equal serial output exactly).  It is the one check that reads wall
time: a pool's gain is wall time that CPU time does not show.

On boxes with fewer than four cores the bench returns a ``skipped``
marker instead of timing anything — a 1- or 2-core machine cannot
demonstrate a 3x fan-out and the check is skipped with a note.

Run standalone::

    PYTHONPATH=src python benchmarks/perf/matrix_bench.py
"""

from __future__ import annotations

import json
import multiprocessing
import time

#: Cores below which the speedup measurement is meaningless.
MIN_CORES = 4


def bench_matrix3x(jobs: int = None, quick: bool = True) -> dict:
    """Serial vs pooled wall clock for the quick matrix, cache off."""
    cpus = multiprocessing.cpu_count()
    if cpus < MIN_CORES:
        return {"skipped": "only %d core%s (need >= %d for a meaningful "
                           "speedup)" % (cpus, "s" if cpus != 1 else "",
                                         MIN_CORES),
                "cpu_count": cpus}
    from repro.exp import build_matrix, matrix_to_json, run_matrix

    jobs = jobs or min(cpus, 8)
    specs = build_matrix(quick=quick)

    start = time.perf_counter()
    serial = run_matrix(specs, jobs=1)
    serial_wall = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_matrix(specs, jobs=jobs)
    parallel_wall = time.perf_counter() - start

    return {
        "cpu_count": cpus,
        "jobs": jobs,
        "points": len(specs),
        "serial_wall_s": serial_wall,
        "parallel_wall_s": parallel_wall,
        "speedup": serial_wall / parallel_wall if parallel_wall else 0.0,
        "identical": matrix_to_json(serial) == matrix_to_json(parallel),
    }


def matrix3x(floor: float) -> tuple:
    """Same-run check: the pooled quick matrix runs >= `floor` times
    faster than the serial one, with byte-identical payloads.  Returns
    (passed, detail), passed None when skipped."""
    fresh = bench_matrix3x()
    if "skipped" in fresh:
        return None, fresh["skipped"]
    detail = "%.2fx at jobs=%d (serial %.2fs, parallel %.2fs on %d cores)" % (
        fresh["speedup"], fresh["jobs"], fresh["serial_wall_s"],
        fresh["parallel_wall_s"], fresh["cpu_count"])
    if not fresh["identical"]:
        return False, detail + "; parallel payload differs from serial"
    return fresh["speedup"] >= floor, detail


if __name__ == "__main__":
    print(json.dumps(bench_matrix3x(), indent=2, sort_keys=True))
