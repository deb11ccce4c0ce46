"""Fault-injection overhead benchmarks: the hooks must be ~free when off.

Every injection site in the stack guards with ``plan is not None`` so that
sessions without a fault plan pay only a pointer check per decision point.
This module prices that check honestly:

* ``tls_disabled`` — baseline: a TLS offload through a session with no
  fault plan (the default everyone runs).
* ``tls_chaos_inert`` — the same offload with a plan attached whose specs
  all have probability 0: injection decisions, device checksum snapshot,
  read-back verification, and the resilience guard all active but never
  firing.  This is what *chaos mode* costs; it is allowed to be slower.
* ``disabled_hook_overhead`` — the gated number: hook executions per op
  (counted with an instrumented plan) times the measured cost of one
  guard branch, as a fraction of the disabled op's CPU time.  This is an
  upper bound on what the hooks cost a plan-less session, and it is the
  same-run check of ``check_regression.py`` (bound 2%).

Counting + branch-timing is used instead of differencing two timed runs
because the difference between ~4 ms ops is dominated by timer noise at
the 2% scale; the product of two low-variance measurements is not.
Times are CPU seconds (``time.process_time``), as in every row of the
gate.
"""

from __future__ import annotations

import time

from repro.core.offload_api import SessionConfig, SmartDIMMSession
from repro.faults.plan import FaultPlan, FaultSite, FaultSpec

KEY = bytes(range(16))
NONCE = bytes(range(12))
PAYLOAD = (b"fault hooks must be free when nobody is injecting " * 164)[:8192]

ALL_SITES = (
    FaultSite.DSA_WEDGE,
    FaultSite.DSA_ALERT_STORM,
    FaultSite.TT_INSERT,
    FaultSite.SCRATCHPAD_EXHAUST,
    FaultSite.DRAM_CORRUPT,
)


def _best_of(fn, repeats: int) -> float:
    """Least CPU time of `repeats` calls of `fn`."""
    best = None
    for _ in range(repeats):
        start = time.process_time()
        fn()
        elapsed = time.process_time() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


class _CountingPlan(FaultPlan):
    """A never-firing plan that counts how often sites consult it."""

    def __init__(self):
        super().__init__(seed=0)
        self.calls = 0

    def fires(self, site: str) -> bool:
        """Count the decision; never inject."""
        self.calls += 1
        return False


def _inert_plan() -> FaultPlan:
    return FaultPlan(seed=1, specs=[
        FaultSpec(site, probability=0.0) for site in ALL_SITES
    ])


def bench_tls(repeats: int = 5) -> dict:
    """Disabled vs inert-chaos TLS offload CPU times."""
    disabled = SmartDIMMSession()
    t_disabled = _best_of(
        lambda: disabled.tls_encrypt(KEY, NONCE, PAYLOAD), repeats)
    chaos = SmartDIMMSession(SessionConfig(fault_plan=_inert_plan()))
    t_chaos = _best_of(lambda: chaos.tls_encrypt(KEY, NONCE, PAYLOAD), repeats)
    return {
        "tls_disabled": {
            "size_bytes": len(PAYLOAD),
            "cpu_s": t_disabled,
            "mbps": len(PAYLOAD) / t_disabled / 1e6,
        },
        "tls_chaos_inert": {
            "size_bytes": len(PAYLOAD),
            "cpu_s": t_chaos,
            "mbps": len(PAYLOAD) / t_chaos / 1e6,
            "overhead_vs_disabled": t_chaos / t_disabled - 1.0,
        },
    }


def bench_disabled_overhead(repeats: int = 5) -> dict:
    """Upper-bound the per-op cost of the disabled (`plan is None`) guards.

    ``hooks_per_op`` counts every injection decision an op makes when a
    plan *is* attached — at least as many guard branches as the plan-less
    path executes.  ``branch_ns`` times the guard pattern itself.  Their
    product over the disabled op time is the gated overhead fraction.
    """
    counting = _CountingPlan()
    session = SmartDIMMSession(SessionConfig(fault_plan=counting))
    session.tls_encrypt(KEY, NONCE, PAYLOAD)
    counting.calls = 0
    session.tls_encrypt(KEY, NONCE, PAYLOAD)
    hooks_per_op = counting.calls

    plan = None
    iterations = 1_000_000

    def guard_loop():
        hits = 0
        for _ in range(iterations):
            if plan is not None:
                hits += 1
        return hits

    branch_s = _best_of(guard_loop, repeats) / iterations
    disabled = SmartDIMMSession()
    op_s = _best_of(lambda: disabled.tls_encrypt(KEY, NONCE, PAYLOAD), repeats)
    return {
        "hooks_per_op": hooks_per_op,
        "branch_ns": branch_s * 1e9,
        "disabled_op_s": op_s,
        "overhead_fraction": hooks_per_op * branch_s / op_s,
    }


def disabled_hook_overhead(bound: float) -> tuple:
    """Same-run check: the disabled guards cost under `bound` of one
    plan-less offload.  Returns (passed, detail)."""
    overhead = bench_disabled_overhead()
    return overhead["overhead_fraction"] < bound, (
        "%.2f%% of one op (%d guards/op x %.1f ns)"
        % (100 * overhead["overhead_fraction"], overhead["hooks_per_op"],
           overhead["branch_ns"]))
