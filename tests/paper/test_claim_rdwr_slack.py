"""Sec. IV-D claim: the gap between the first sbuf rdCAS and the first dbuf
wrCAS exceeds the per-line DSA latency, so SmartDIMM needs no polling in the
common case.

The paper measured >1us of slack on AxDIMM; in controller cycles at
DDR4-3200 that is ~1600 cycles, far above the 64-byte ULP latency.  We
measure the same quantity from the simulated command stream and check it
covers the modelled DSA latency — the structural reason S13 (ALERT_N) stays
rare.
"""

from repro.core.dsa.base import UlpKind
from repro.core.dsa.tls_dsa import TLSOffloadContext
from repro.core.offload_api import SessionConfig, SmartDIMMSession
from repro.dram.commands import PAGE_SIZE
from repro.sim.tracing import CommandTraceRecorder


def _measure():
    session = SmartDIMMSession(
        SessionConfig(memory_bytes=16 * 1024 * 1024, llc_bytes=512 * 1024, trace=True)
    )
    slacks = []
    for i in range(6):
        sbuf = session.driver.alloc_pages(1)
        dbuf = session.driver.alloc_pages(1)
        session.write(sbuf, bytes([i]) * PAGE_SIZE)
        context = TLSOffloadContext(key=bytes(16), nonce=bytes(12), record_length=PAGE_SIZE - 16)
        session.compcpy.compcpy(dbuf, sbuf, PAGE_SIZE, context, UlpKind.TLS_ENCRYPT)
        recorder = CommandTraceRecorder(session.mc)
        summary = recorder.summarize((sbuf, sbuf + PAGE_SIZE), (dbuf, dbuf + PAGE_SIZE))
        slacks.append(summary.read_write_slack_cycles)
        session.driver.free_pages(sbuf)
        session.driver.free_pages(dbuf)
    return slacks, session


def test_rdcas_wrcas_slack_covers_dsa_latency():
    slacks, session = _measure()
    ns_per_cycle = session.mc.timing.cycle_time_ns
    latency = session.device.config.dsa_line_latency_cycles
    lines = ["Sec. IV-D claim — slack between first sbuf rdCAS and first dbuf wrCAS",
             f"per-offload slack (cycles): {slacks}",
             f"minimum slack: {min(slacks)} cycles = {min(slacks) * ns_per_cycle:.0f} ns",
             f"modelled per-line DSA latency: {latency} cycles",
             f"ALERT_N retries observed: {session.mc.stats.alerts}"]
    print("\n" + "\n".join(lines))

    # The slack always covers the 64-byte ULP latency...
    assert min(slacks) > latency
    # ...so optimistic completion needs no retries in the common case.
    assert session.mc.stats.alerts == 0
