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
  guard branch, as a fraction of the disabled op's wall time.  This is an
  upper bound on what the hooks cost a plan-less session, and it is what
  ``check_regression.py`` asserts stays under 2%.

Counting + branch-timing is used instead of differencing two wall-clock
runs because the difference between ~16 ms ops is dominated by timer noise
at the 2% scale; the product of two low-variance measurements is not.
"""

from __future__ import annotations

import json
import os
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

RESULTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "BENCH_faults.json")


def _best_of(fn, repeats: int) -> float:
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
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
    """Disabled vs inert-chaos TLS offload wall times."""
    disabled = SmartDIMMSession()
    t_disabled = _best_of(
        lambda: disabled.tls_encrypt(KEY, NONCE, PAYLOAD), repeats)
    chaos = SmartDIMMSession(SessionConfig(fault_plan=_inert_plan()))
    t_chaos = _best_of(lambda: chaos.tls_encrypt(KEY, NONCE, PAYLOAD), repeats)
    return {
        "tls_disabled": {
            "size_bytes": len(PAYLOAD),
            "wall_s": t_disabled,
            "mbps": len(PAYLOAD) / t_disabled / 1e6,
        },
        "tls_chaos_inert": {
            "size_bytes": len(PAYLOAD),
            "wall_s": t_chaos,
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


def bench_all(repeats: int = 5) -> dict:
    """Run every section; returns the BENCH_faults.json payload."""
    results = bench_tls(repeats)
    results["disabled_hook_overhead"] = bench_disabled_overhead(repeats)
    return results


def write_results(results: dict, path: str = RESULTS_PATH) -> str:
    """Persist `results` as pretty-printed JSON; returns the path."""
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def main() -> None:
    """CLI entry: run the sweep, print the summary, write the baseline."""
    results = bench_all()
    overhead = results["disabled_hook_overhead"]
    print("tls disabled     %8.3f ms" % (1e3 * results["tls_disabled"]["wall_s"]))
    print("tls chaos-inert  %8.3f ms  (+%.1f%%)"
          % (1e3 * results["tls_chaos_inert"]["wall_s"],
             100 * results["tls_chaos_inert"]["overhead_vs_disabled"]))
    print("disabled hooks: %d guards/op x %.1f ns = %.4f%% of one op"
          % (overhead["hooks_per_op"], overhead["branch_ns"],
             100 * overhead["overhead_fraction"]))
    print("wrote", write_results(results))


if __name__ == "__main__":
    main()
