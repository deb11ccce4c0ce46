"""The experiment-matrix harness behind ``python -m repro matrix``.

The harness turns every figure in this repo — the paper's placement
crossover and Table I co-runner interference plus the extension sweeps
(cluster, faults, overload, replication, qos, ras) — into one declarative
matrix of :class:`~repro.exp.spec.RunSpec` points:

* :mod:`repro.exp.spec` — the frozen, hashable description of one
  experiment point (target x instance x seed).
* :mod:`repro.exp.targets` — the target registry, one owner per figure
  family: each target lists its points as a table
  ``{label: (function, kwargs)}``, runs one point purely by calling the
  entry a spec's label names, rolls the point results up into the
  exact payload its committed baseline ``BENCH_<target>.json`` stores,
  renders it, and declares its headline metrics and gate thresholds as
  data.
* :mod:`repro.exp.pool` — the ``multiprocessing`` run-pool that fans
  points out across cores.  Workers share no RNG state: every point
  derives everything from its spec, so ``--jobs N`` output is
  byte-identical to ``--jobs 1``.
* :mod:`repro.exp.cache` — the content-addressed on-disk result cache.
  Key = hash of the spec plus the target's *code-relevant* source digest,
  so an edit to an unrelated module keeps every hit and an edit to a
  module the target depends on invalidates exactly that target.
* :mod:`repro.exp.matrix` — orchestration: build the matrix, consult the
  cache, run the misses through the pool, roll up per-target payloads and
  the cross-target geomean statistics.

``python -m repro matrix --only X`` runs and gates one family;
``--quick`` shrinks its grid, ``--check`` byte-compares its rollup with
the committed baseline, and ``--update`` rewrites that baseline.
"""

from repro.exp.cache import ResultCache, code_digest
from repro.exp.matrix import (MatrixResult, build_matrix, matrix_to_json,
                              run_matrix)
from repro.exp.spec import RunSpec
from repro.exp.targets import TARGETS, get_target, target_names

__all__ = [
    "MatrixResult",
    "ResultCache",
    "RunSpec",
    "TARGETS",
    "build_matrix",
    "code_digest",
    "get_target",
    "matrix_to_json",
    "run_matrix",
    "target_names",
]
