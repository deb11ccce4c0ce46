"""Fig. 10: scratchpad occupancy equilibrium under varying LLC provisioning.

Paper result (Sec. VII-A): scratchpad utilisation stabilises at an
equilibrium where LLC writebacks recycle pages as fast as new offloads
allocate them, and a *more contended* (smaller, CAT-limited) LLC reaches
equilibrium at a *lower* occupancy — writebacks come sooner.
"""

from repro.core.dsa.base import UlpKind
from repro.core.dsa.tls_dsa import TLSOffloadContext
from repro.core.offload_api import SessionConfig, SmartDIMMSession
from repro.core.smartdimm import SmartDIMMConfig
from repro.dram.commands import PAGE_SIZE
from repro.sim.tracing import ScratchpadProbe

# Scaled-down analogue of the paper's {50MB, 30MB, 10MB} CAT sweep: the LLC
# way mask shrinks the effective cache while everything else stays fixed.
WAY_MASKS = {"16-way (full)": 0xFFFF, "8-way": 0x00FF, "2-way": 0x0003}
OFFLOADS = 240
BUFFER_SLOTS = 80  # rotating working set of source/destination buffers


def _run(way_mask):
    session = SmartDIMMSession(
        SessionConfig(
            memory_bytes=48 * 1024 * 1024,
            llc_bytes=1024 * 1024,
            rows=1 << 10,
            smartdimm=SmartDIMMConfig(scratchpad_pages=256, config_slots=256),
        )
    )
    session.llc.set_cpu_way_mask(way_mask)
    probe = ScratchpadProbe(session.device)
    key, nonce = bytes(16), bytes(12)
    buffers = [
        (session.driver.alloc_pages(1), session.driver.alloc_pages(1))
        for _ in range(BUFFER_SLOTS)
    ]
    force_recycles_before = session.compcpy.stats.force_recycles
    for i in range(OFFLOADS):
        sbuf, dbuf = buffers[i % BUFFER_SLOTS]
        if i >= BUFFER_SLOTS:
            # Reusing a buffer slot: reclaim any still-pending lines first
            # (kernel-side hygiene, as on free).
            session.driver.reclaim_page(dbuf // PAGE_SIZE)
        session.write(sbuf, bytes([i & 0xFF]) * PAGE_SIZE)
        context = TLSOffloadContext(key=key, nonce=nonce, record_length=PAGE_SIZE - 16)
        session.compcpy.compcpy(
            dbuf, sbuf, PAGE_SIZE, context, UlpKind.TLS_ENCRYPT,
            flush_destination=False,  # recycling is the LLC's job here
        )
        probe.sample(session.mc.cycle)
    return {
        "equilibrium_kb": probe.equilibrium_bytes(0.5) / 1024,
        "peak_kb": probe.peak_bytes() / 1024,
        "self_recycled": session.device.scratchpad.self_recycled_lines,
        "force_recycles": session.compcpy.stats.force_recycles - force_recycles_before,
        "samples": [s.used_bytes for s in probe.samples],
    }


def test_fig10_equilibrium_vs_llc_provisioning():
    results = {name: _run(mask) for name, mask in WAY_MASKS.items()}

    lines = ["Fig. 10 — scratchpad occupancy vs LLC provisioning (CAT)",
             f"{'LLC config':>15} {'equilibrium KB':>14} {'peak KB':>8} "
             f"{'self-recycled lines':>19} {'force-recycles':>14}"]
    for name, result in results.items():
        lines.append(
            f"{name:>15} {result['equilibrium_kb']:>14.1f} {result['peak_kb']:>8.1f} "
            f"{result['self_recycled']:>19d} {result['force_recycles']:>14d}"
        )
    # The occupancy curves themselves (offload index vs occupied bytes).
    from repro.analysis.plots import render_timeline

    lines.append("")
    lines.append(
        render_timeline(
            {name: result["samples"] for name, result in results.items()},
            width=72,
            height=14,
        ).rstrip()
    )
    print("\n" + "\n".join(lines))

    full = results["16-way (full)"]
    half = results["8-way"]
    tiny = results["2-way"]
    # Occupancy reaches an equilibrium (stops growing): the second half of
    # the run never exceeds the peak meaningfully.
    for result in results.values():
        tail = result["samples"][len(result["samples"]) // 2 :]
        assert max(tail) <= result["peak_kb"] * 1024 + PAGE_SIZE
    # Equilibrium occupancy shrinks as the LLC gets more contended.
    assert tiny["equilibrium_kb"] < half["equilibrium_kb"] <= full["equilibrium_kb"] * 1.05
    assert tiny["equilibrium_kb"] < full["equilibrium_kb"]
    # Self-recycling does the work; Force-Recycle stays rare (Sec. IV-B).
    assert tiny["self_recycled"] > 0
    assert tiny["force_recycles"] <= 2
