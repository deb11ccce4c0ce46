"""Ablation: the adaptive engine's LLC-contention threshold.

The offload engine's miss-rate threshold is "a configurable parameter"
(Sec. V-C) that cache partitioning shifts.  We sweep it under a mixed
workload phase profile: a permissive threshold offloads everything, a
strict one offloads nothing, and intermediate settings track the actual
contention phases.
"""

from repro.apps.mcf import McfKernel
from repro.core.engine import AdaptiveOffloadEngine, OffloadDecision
from repro.core.offload_api import SessionConfig, SmartDIMMSession

THRESHOLDS = [0.02, 0.3, 0.6, 1.0]
DECISIONS_PER_PHASE = 40


def _run(threshold):
    session = SmartDIMMSession(
        SessionConfig(memory_bytes=32 * 1024 * 1024, llc_bytes=128 * 1024)
    )
    engine = AdaptiveOffloadEngine(session.llc, miss_rate_threshold=threshold, sample_every=4)
    offloads = {"calm": 0, "thrash": 0}
    # Warm the hot set so the calm phase measures steady state, not
    # compulsory misses.
    for i in range(64):
        session.llc.load((i % 32) * 64)
    engine.decide()  # absorb the warm-up window
    # Calm phase: a hot working set that fits.
    for i in range(DECISIONS_PER_PHASE):
        session.llc.load((i % 32) * 64)
        if engine.decide() is OffloadDecision.SMARTDIMM:
            offloads["calm"] += 1
    # Thrash phase: mcf blows the cache between decisions.
    kernel = McfKernel(session.llc, base_address=16 * 1024 * 1024, footprint_bytes=2 << 20)
    for _ in range(DECISIONS_PER_PHASE):
        kernel.step(100)
        if engine.decide() is OffloadDecision.SMARTDIMM:
            offloads["thrash"] += 1
    return offloads


def test_adaptive_threshold_ablation():
    results = {t: _run(t) for t in THRESHOLDS}
    lines = ["Ablation — adaptive offload threshold sweep "
             f"({DECISIONS_PER_PHASE} decisions per phase)",
             f"{'threshold':>9} {'offloads (calm)':>15} {'offloads (thrash)':>17}"]
    for threshold, offloads in results.items():
        lines.append(f"{threshold:>9.2f} {offloads['calm']:>15d} {offloads['thrash']:>17d}")
    print("\n" + "\n".join(lines))

    # A permissive threshold offloads the thrash phase almost entirely
    # (the first few decisions reuse the pre-switch sample window).
    assert results[0.02]["thrash"] >= DECISIONS_PER_PHASE * 0.9
    # The degenerate threshold of 1.0 can never be exceeded: pure onload.
    assert results[1.0]["calm"] == 0
    assert results[1.0]["thrash"] == 0
    # A sane middle threshold discriminates the phases.
    assert results[0.3]["calm"] < DECISIONS_PER_PHASE * 0.3
    assert results[0.3]["thrash"] > DECISIONS_PER_PHASE * 0.7
