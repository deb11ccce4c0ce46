"""Ablation: baseline CompCpy vs the Sec. IV-E direct-offload model.

The paper's discussion argues that, given new DDR commands and a modified
memory controller, the offload "could eliminate cache pollution entirely"
and "conserve DDR data bandwidth".  We run the same TLS offloads through
both models on identical micro-systems and compare data-bus bytes, LLC
activity, and controller cycles for the transform itself.
"""

from repro.core.dsa.base import UlpKind
from repro.core.dsa.tls_dsa import TLSOffloadContext
from repro.core.offload_api import SessionConfig, SmartDIMMSession
from repro.dram.commands import PAGE_SIZE
from repro.ulp.gcm import AESGCM

OFFLOADS = 8
KEY, NONCE = bytes(16), bytes(12)


def _prepare(session, i):
    sbuf = session.driver.alloc_pages(1)
    dbuf = session.driver.alloc_pages(1)
    payload = bytes(((i + 1) * j) & 0xFF for j in range(PAGE_SIZE - 16))
    session.write(sbuf, payload + bytes(16))
    session.llc.flush_range(sbuf, PAGE_SIZE)
    session.mc.fence()
    return sbuf, dbuf, payload


def _run(model):
    session = SmartDIMMSession(
        SessionConfig(memory_bytes=16 * 1024 * 1024, llc_bytes=512 * 1024)
    )
    bus_bytes = 0
    llc_accesses = 0
    cycles = 0
    for i in range(OFFLOADS):
        sbuf, dbuf, payload = _prepare(session, i)
        context = TLSOffloadContext(key=KEY, nonce=NONCE, record_length=len(payload))
        b0, a0, c0 = session.mc.stats.data_bytes, session.llc.stats.accesses, session.mc.cycle
        if model == "compcpy":
            session.compcpy.compcpy(dbuf, sbuf, PAGE_SIZE, context, UlpKind.TLS_ENCRYPT)
        else:
            session.direct_offload.offload(dbuf, sbuf, PAGE_SIZE, context, UlpKind.TLS_ENCRYPT)
            session.direct_offload.retire_all()
        bus_bytes += session.mc.stats.data_bytes - b0
        llc_accesses += session.llc.stats.accesses - a0
        cycles += session.mc.cycle - c0
        # Both models must produce the same bytes in DRAM.
        expected_ct, _ = AESGCM(KEY).encrypt(NONCE, payload)
        session.mc.fence()
        assert session.memory.read(dbuf, 256) == expected_ct[:256]
        session.driver.free_pages(sbuf)
        session.driver.free_pages(dbuf)
    return {
        "bus_bytes": bus_bytes / OFFLOADS,
        "llc_accesses": llc_accesses / OFFLOADS,
        "cycles": cycles / OFFLOADS,
    }


def test_direct_offload_vs_compcpy():
    results = {m: _run(m) for m in ("compcpy", "direct")}
    base, direct = results["compcpy"], results["direct"]
    lines = ["Ablation — CompCpy vs Sec. IV-E direct offload (per 4KB TLS offload)",
             f"{'model':>9} {'bus bytes':>10} {'LLC accesses':>12} {'MC cycles':>10}",
             f"{'compcpy':>9} {base['bus_bytes']:>10.0f} {base['llc_accesses']:>12.0f} {base['cycles']:>10.0f}",
             f"{'direct':>9} {direct['bus_bytes']:>10.0f} {direct['llc_accesses']:>12.0f} {direct['cycles']:>10.0f}",
             f"bus-data reduction: {1 - direct['bus_bytes'] / base['bus_bytes']:.1%}",
             f"cache-access reduction: {1 - direct['llc_accesses'] / max(base['llc_accesses'], 1):.1%}"]
    print("\n" + "\n".join(lines))

    # CompCpy moves the payload at least twice (loads + stores' writebacks)
    # plus registration; direct offload moves only the MMIO record.
    assert base["bus_bytes"] > 2 * PAGE_SIZE
    assert direct["bus_bytes"] == 64
    # Zero cache pollution for the direct model.
    assert direct["llc_accesses"] == 0
    assert base["llc_accesses"] >= 128  # 64 loads + 64 stores
    # Fewer cycles too: no data bursts, no fences, no flush-back.
    assert direct["cycles"] < base["cycles"]
