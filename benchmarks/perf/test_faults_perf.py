"""Perf-marked benchmark: fault hooks must be essentially free when off.

Excluded from tier-1 (``testpaths = ["tests"]`` plus the ``perf`` marker);
run explicitly with::

    PYTHONPATH=src python -m pytest -m perf benchmarks/perf -q

The disabled-hook assertion is the same-run check of
``check_regression.py``, at the bound its table gives (the counting +
branch-timing method has low variance); the chaos-mode assertion is
loose — attaching a plan buys checksum verification and the resilience
guard, which are allowed to cost real time.
"""

import pytest

import check_regression
import faults_bench

pytestmark = pytest.mark.perf


def test_disabled_hooks_under_two_percent():
    """The `plan is None` guards cost under 2% of a plan-less offload."""
    row = next(r for r in check_regression.ROWS
               if r.name == "disabled_hook_overhead")
    overhead = faults_bench.bench_disabled_overhead()
    assert overhead["hooks_per_op"] > 0, "counting plan saw no hook executions"
    assert overhead["overhead_fraction"] < row.bound, (
        "disabled fault hooks cost %.2f%% of an op (%d guards x %.1f ns)"
        % (100 * overhead["overhead_fraction"], overhead["hooks_per_op"],
           overhead["branch_ns"])
    )


def test_chaos_mode_overhead_bounded():
    """Inert chaos mode (plan attached, nothing firing) stays under 2x."""
    assert faults_bench.bench_tls()["tls_chaos_inert"]["overhead_vs_disabled"] < 1.0
