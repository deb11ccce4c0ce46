"""Ablation: CompCpy vs Compute DMA for device-sourced data (Sec. IV-E).

When the payload originates at an I/O device anyway (storage read, NIC
receive), Compute DMA lets the DSA tap the DMA write stream: the CPU never
loads or stores the payload, so its cycles and cache footprint drop to the
registration cost alone, at identical output bytes.
"""

from repro.core.dsa.base import UlpKind
from repro.core.dsa.tls_dsa import TLSOffloadContext
from repro.core.offload_api import SessionConfig, SmartDIMMSession
from repro.dram.commands import PAGE_SIZE
from repro.ulp.gcm import AESGCM

KEY, NONCE = bytes(16), bytes(12)
OFFLOADS = 6


def _run(model):
    session = SmartDIMMSession(
        SessionConfig(memory_bytes=16 * 1024 * 1024, llc_bytes=512 * 1024)
    )
    llc_accesses = 0
    for i in range(OFFLOADS):
        payload = bytes(((i + 1) * j) & 0xFF for j in range(PAGE_SIZE - 16))
        sbuf = session.driver.alloc_pages(1)
        dbuf = session.driver.alloc_pages(1)
        context = TLSOffloadContext(key=KEY, nonce=NONCE, record_length=len(payload))
        accesses_before = session.llc.stats.accesses
        if model == "compcpy":
            # CompCpy path: the device first DMAs the payload in, then the
            # CPU copies it through the cache.
            session.compute_dma.dma_in(sbuf, payload + bytes(16))
            session.compcpy.compcpy(dbuf, sbuf, PAGE_SIZE, context, UlpKind.TLS_ENCRYPT)
        else:
            # Compute DMA: the transform happens during the DMA itself.
            session.compute_dma.register(dbuf, sbuf, PAGE_SIZE, context, UlpKind.TLS_ENCRYPT)
            session.compute_dma.dma_in(sbuf, payload + bytes(16))
        llc_accesses += session.llc.stats.accesses - accesses_before
        # Identical output either way.
        expected = AESGCM(KEY).encrypt(NONCE, payload)[0][:64]
        session.mc.cycle += 10_000
        assert session.mc.read_line(dbuf) == expected
        session.driver.free_pages(sbuf)
        session.driver.free_pages(dbuf)
    return llc_accesses / OFFLOADS


def test_compute_dma_removes_cpu_payload_touches():
    results = {m: _run(m) for m in ("compcpy", "compute_dma")}
    print("\n" + "\n".join([
        "Ablation — CompCpy vs Compute DMA for device-sourced payloads",
        f"LLC accesses per 4KB offload (CompCpy):     {results['compcpy']:.0f}",
        f"LLC accesses per 4KB offload (Compute DMA): {results['compute_dma']:.0f}",
        "Compute DMA removes every CPU payload touch; the CPU only",
        "registers the offload (Sec. IV-E's 'transform data while an",
        "I/O device is DMAing data to or from SmartDIMM').",
    ]))
    assert results["compute_dma"] == 0
    assert results["compcpy"] >= 128  # 64 loads + 64 stores minimum
