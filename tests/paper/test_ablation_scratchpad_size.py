"""Ablation: scratchpad sizing vs Force-Recycle frequency.

The paper sizes the scratchpad (and config memory) at 2048 pages because
that "effectively leads to nearly zero Force-Recycle method calls"
(Sec. IV-C).  We sweep the scratchpad size under a deferred-flush offload
stream and count explicit recycles: small scratchpads thrash, large ones
never force-recycle.
"""

from repro.core.dsa.base import UlpKind
from repro.core.dsa.tls_dsa import TLSOffloadContext
from repro.core.offload_api import SessionConfig, SmartDIMMSession
from repro.core.smartdimm import SmartDIMMConfig
from repro.dram.commands import PAGE_SIZE

SCRATCHPAD_PAGES = [8, 16, 64, 256]
OFFLOADS = 48
BUFFER_SLOTS = 48  # fresh buffers: nothing self-recycles early by reuse


def _run(pages):
    session = SmartDIMMSession(
        SessionConfig(
            memory_bytes=64 * 1024 * 1024,
            llc_bytes=8 * 1024 * 1024,  # huge LLC: writebacks almost never occur
            rows=1 << 10,
            llc_ways=16,
            smartdimm=SmartDIMMConfig(scratchpad_pages=pages, config_slots=256),
        )
    )
    key, nonce = bytes(16), bytes(12)
    for i in range(OFFLOADS):
        sbuf = session.driver.alloc_pages(1)
        dbuf = session.driver.alloc_pages(1)
        session.write(sbuf, bytes([i & 0xFF]) * PAGE_SIZE)
        context = TLSOffloadContext(key=key, nonce=nonce, record_length=PAGE_SIZE - 16)
        session.compcpy.compcpy(
            dbuf, sbuf, PAGE_SIZE, context, UlpKind.TLS_ENCRYPT, flush_destination=False
        )
    return {
        "force_recycles": session.compcpy.stats.force_recycles,
        "force_recycled_lines": session.device.scratchpad.force_recycled_lines,
        "self_recycled_lines": session.device.scratchpad.self_recycled_lines,
    }


def test_scratchpad_sizing_ablation():
    results = {p: _run(p) for p in SCRATCHPAD_PAGES}
    lines = ["Ablation — scratchpad size vs Force-Recycle calls "
             f"({OFFLOADS} deferred-flush offloads, no LLC pressure)",
             f"{'pages':>6} {'force-recycle calls':>19} {'forced lines':>12} {'self lines':>10}"]
    for pages, result in results.items():
        lines.append(
            f"{pages:>6d} {result['force_recycles']:>19d} "
            f"{result['force_recycled_lines']:>12d} {result['self_recycled_lines']:>10d}"
        )
    print("\n" + "\n".join(lines))

    counts = [results[p]["force_recycles"] for p in SCRATCHPAD_PAGES]
    # Tiny scratchpads must force-recycle; the provisioned one never does.
    assert counts[0] > 0
    assert counts[-1] == 0
    # Monotone non-increasing with size.
    for left, right in zip(counts, counts[1:]):
        assert right <= left
