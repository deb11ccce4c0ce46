"""Ablation: ordered (fence-per-64B) vs unordered CompCpy.

Algorithm 2 inserts a memory barrier between 64-byte segments only when the
DSA is order-sensitive (deflate).  The fences force the write queue to
drain per line, costing controller cycles — the price non-incrementally-
parallel ULPs pay.
"""

from repro.core.dsa.base import UlpKind
from repro.core.dsa.tls_dsa import TLSOffloadContext
from repro.core.offload_api import SessionConfig, SmartDIMMSession
from repro.dram.commands import PAGE_SIZE


def _run(ordered):
    session = SmartDIMMSession(
        SessionConfig(memory_bytes=16 * 1024 * 1024, llc_bytes=512 * 1024)
    )
    key, nonce = bytes(16), bytes(12)
    start = session.mc.cycle
    for i in range(4):
        sbuf = session.driver.alloc_pages(1)
        dbuf = session.driver.alloc_pages(1)
        session.write(sbuf, bytes([i]) * PAGE_SIZE)
        context = TLSOffloadContext(key=key, nonce=nonce, record_length=PAGE_SIZE - 16)
        session.compcpy.compcpy(
            dbuf, sbuf, PAGE_SIZE, context, UlpKind.TLS_ENCRYPT, ordered=ordered
        )
        session.driver.free_pages(sbuf)
        session.driver.free_pages(dbuf)
    return session.mc.cycle - start


def test_ordered_copy_costs_cycles():
    results = {flag: _run(flag) for flag in (False, True)}
    overhead = results[True] / results[False] - 1
    print("\n" + "\n".join([
        "Ablation — ordered vs unordered CompCpy (4x 4KB TLS offloads)",
        f"unordered copy: {results[False]:>8d} controller cycles",
        f"ordered copy:   {results[True]:>8d} controller cycles",
        f"ordering tax:   {overhead:>8.1%}",
    ]))
    # Ordering costs something real but not pathological.
    assert results[True] > results[False]
    assert overhead < 2.0
