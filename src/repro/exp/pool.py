"""The ``multiprocessing`` run-pool that fans matrix points across cores.

Workers receive a :class:`~repro.exp.spec.RunSpec` as a plain dict (the
only thing that crosses the process boundary), look the target up in the
registry, and call :meth:`~repro.exp.targets.Target.run_point`, which
rebuilds the target's point table from the spec's seed and grid size and
runs the entry the spec's label names.  Nothing else is shared:
no RNG state, no session objects, no accumulated module caches that
affect values — every point derives all randomness from its spec's seed,
which is what makes ``--jobs N`` byte-identical to ``--jobs 1``
(pinned by ``tests/exp/test_matrix_determinism.py``).

``jobs <= 1`` (or a single point) runs inline in the calling process —
the serial arm of the machine-relative speedup gate pays zero pool
overhead, and restricted environments without working ``fork``/``spawn``
can still run the matrix.
"""

from __future__ import annotations

import multiprocessing
import time

from repro.exp.spec import RunSpec


def _execute_spec(spec_dict: dict):
    """Worker entry: run one point purely from its spec.

    Top-level (picklable) and import-light: the target registry is
    resolved here so ``spawn`` workers import it fresh and ``fork``
    workers reuse the parent's copy — either way the result depends
    only on the spec.
    """
    from repro.exp.targets import get_target

    spec = RunSpec.from_dict(spec_dict)
    start = time.perf_counter()
    result = get_target(spec.target).run_point(spec)
    return spec_dict, result, time.perf_counter() - start


def _context():
    """Prefer fork (cheap workers); fall back to the default method."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def run_points(specs, jobs: int = 1, progress=None) -> dict:
    """Execute every spec; returns ``{spec.digest(): (result, elapsed_s)}``.

    ``progress``, when given, receives one line of text as each point
    completes (completion order under a pool, submission order inline).
    """
    specs = list(specs)
    out = {}

    def record(spec_dict, result, elapsed):
        spec = RunSpec.from_dict(spec_dict)
        out[spec.digest()] = (result, elapsed)
        if progress is not None:
            progress("  done %s (%.2fs)" % (spec.label, elapsed))

    if jobs <= 1 or len(specs) <= 1:
        for spec in specs:
            record(*_execute_spec(spec.to_dict()))
        return out

    payloads = [spec.to_dict() for spec in specs]
    with _context().Pool(processes=min(jobs, len(specs))) as pool:
        for spec_dict, result, elapsed in pool.imap_unordered(
                _execute_spec, payloads):
            record(spec_dict, result, elapsed)
    return out
