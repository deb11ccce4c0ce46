"""Fixed workloads on the burst path vs its per-line oracle.

A session's range operations and same-row CAS bursts must be
*bit-identical* to the per-line walk of :mod:`tests.micro_oracle`: same
output bytes, same controller stats and final cycle, same rdCAS/wrCAS
trace stream, same LLC, device and CompCpy stats.  Every twin test here
drives a session and its oracle through the same workload and diffs the
complete observable state; ``tests/core/test_micro_oracle.py`` does the
same over generated op sequences.
"""

import pytest

from repro.core.offload_api import SessionConfig, SmartDIMMSession
from repro.core.dsa.base import UlpKind
from repro.core.dsa.tls_dsa import TLSOffloadContext
from repro.core.smartdimm import SmartDIMMConfig
from repro.dram.address import AddressMapping, InterleaveMode
from repro.dram.commands import CACHELINE_SIZE, PAGE_SIZE
from repro.ulp.ctx_cache import cached_aesgcm
from repro.faults.errors import DsaWedgedError
from tests.micro_oracle import assert_same, oracle_session, outcome

KEY = bytes(range(16))
NONCE = bytes(range(12))
AAD = b"\x17\x03\x03\x12\x34"


def _payload(size: int) -> bytes:
    return bytes((13 * i + 7) & 0xFF for i in range(size))


def _twins(**config):
    """(oracle, session) over the same traced configuration."""
    return (oracle_session(SessionConfig(trace=True, **config)),
            SmartDIMMSession(SessionConfig(trace=True, **config)))


@pytest.mark.parametrize("size", [PAGE_SIZE, 3 * PAGE_SIZE, 16 * PAGE_SIZE])
def test_tls_unordered_copy_is_bit_identical(size):
    """The bulk copy_range/read_lines/write_lines_now pipeline reproduces
    the per-line TLS offload exactly — output, stats, cycle, and trace."""
    oracle, burst = _twins()
    payload = _payload(size)
    out_oracle = oracle.tls_encrypt(KEY, NONCE, payload, AAD)
    out_burst = burst.tls_encrypt(KEY, NONCE, payload, AAD)
    expected = cached_aesgcm(KEY).encrypt(NONCE, payload, AAD)
    assert out_burst == out_oracle == expected[0] + expected[1]
    assert_same(oracle, burst)


def test_tls_decrypt_is_bit_identical():
    payload = _payload(2 * PAGE_SIZE)
    ciphertext, tag = cached_aesgcm(KEY).encrypt(NONCE, payload, AAD)
    oracle, burst = _twins()
    out_oracle = oracle.tls_decrypt(KEY, NONCE, ciphertext, AAD)
    out_burst = burst.tls_decrypt(KEY, NONCE, ciphertext, AAD)
    assert out_burst == out_oracle == payload + tag
    assert_same(oracle, burst)


def test_deflate_ordered_copy_is_bit_identical():
    """The ordered (fenced, per-line) copy also matches its oracle —
    flushes and buffer reads still use the range ops."""
    data = (b"smartdimm deflates html " * 200)[:PAGE_SIZE]
    oracle, burst = _twins()
    out_oracle = oracle.deflate_page(data)
    out_burst = burst.deflate_page(data)
    assert out_burst == out_oracle
    assert_same(oracle, burst)


@pytest.mark.parametrize("llc_bytes, llc_ways", [(16 * 1024, 4), (64 * 1024, 16)])
def test_ordered_copy_over_a_dirty_llc_is_bit_identical(llc_bytes, llc_ways):
    """With every LLC set full of dirty lines, the ordered copy's fills
    evict them, and the per-line loop fences each writeback out between
    two rdCAS: the fenced bursts must stop before such a fill."""
    oracle, burst = _twins(llc_bytes=llc_bytes, llc_ways=llc_ways)
    data = (b"smartdimm deflates html " * 200)[:PAGE_SIZE]
    for session in (oracle, burst):
        buffer = session.alloc(2 * llc_bytes)
        session.write(buffer, _payload(2 * llc_bytes))
        session.free(buffer)  # the offload's pages reuse the dirty lines'
    assert burst.deflate_page(data) == oracle.deflate_page(data)
    assert_same(oracle, burst)


def test_multiple_records_per_session_stay_identical():
    """State equality must hold across back-to-back offloads, where the LLC
    and write queue start each record warm, not empty."""
    oracle, burst = _twins()
    for size in (PAGE_SIZE, 4 * PAGE_SIZE, PAGE_SIZE):
        payload = _payload(size)
        assert burst.tls_encrypt(KEY, NONCE, payload, AAD) == oracle.tls_encrypt(
            KEY, NONCE, payload, AAD
        )
    assert_same(oracle, burst)


def _compcpy_offload(session, size, flush_destination):
    sbuf = session.driver.alloc_pages(size // PAGE_SIZE)
    dbuf = session.driver.alloc_pages(size // PAGE_SIZE + 1)
    session.compcpy.write_buffer(sbuf, _payload(size))
    # Leave room for the 16-byte tag inside the registered pages.
    context = TLSOffloadContext(key=KEY, nonce=NONCE, record_length=size - 16, aad=AAD)
    offload = session.compcpy.compcpy(
        dbuf, sbuf, size, context, UlpKind.TLS_ENCRYPT,
        flush_destination=flush_destination,
    )
    return sbuf, dbuf, offload


def test_deferred_flush_and_force_recycle_are_bit_identical():
    """flush_destination=False leaves dirty plaintext in the LLC; the
    explicit Force-Recycle (Algorithm 1) must match its oracle, including
    its flush_range and per-line recycle traffic."""
    size = 2 * PAGE_SIZE
    oracle, burst = _twins()
    for session in (oracle, burst):
        _compcpy_offload(session, size, flush_destination=False)
        session.compcpy.force_recycle(size // PAGE_SIZE)
    assert burst.compcpy.stats == oracle.compcpy.stats
    assert burst.compcpy.stats.force_recycles == 1
    assert_same(oracle, burst)


def test_reclaim_of_unfinished_lines_is_bit_identical():
    """Freeing a deferred copy's buffers at once reclaims lines the DSA
    has not finished (the tag line only finalises 320 cycles after the
    last read): the driver's write runs must stop where the per-line
    reclaim would spin."""
    oracle, burst = _twins()
    for session in (oracle, burst):
        sbuf, dbuf, _ = _compcpy_offload(session, PAGE_SIZE,
                                         flush_destination=False)
        session.driver.free_pages(sbuf)
        session.driver.free_pages(dbuf)
    assert burst.device.stats.self_recycles == PAGE_SIZE // CACHELINE_SIZE
    assert_same(oracle, burst)


def test_explicit_flush_after_deferred_use_is_bit_identical():
    size = 3 * PAGE_SIZE
    oracle, burst = _twins()
    outputs = []
    for session in (oracle, burst):
        sbuf, dbuf, _ = _compcpy_offload(session, size, flush_destination=False)
        session.llc.flush_range(dbuf, size)
        session.mc.fence()
        outputs.append(session.compcpy.read_buffer(dbuf, size))
    assert outputs[0] == outputs[1]
    assert_same(oracle, burst)


def _live_tls_twins():
    """(oracle, session), each with a two-page TLS offload registered
    over a flushed source, and the (sbuf, dbuf) both use."""
    size = 2 * PAGE_SIZE
    twins = _twins()
    buffers = set()
    for session in twins:
        sbuf = session.driver.alloc_pages(2)
        dbuf = session.driver.alloc_pages(2)
        session.write(sbuf, _payload(size))
        session.llc.flush_range(sbuf, size)
        session.mc.fence()
        context = TLSOffloadContext(key=KEY, nonce=NONCE, record_length=size - 16)
        session.driver.register_offload(UlpKind.TLS_ENCRYPT, context, sbuf, dbuf, 2)
        buffers.add((sbuf, dbuf))
    (sbuf, dbuf), = buffers
    return twins, sbuf, dbuf


def test_runs_of_one_walk_every_arbiter_state_bit_identically():
    """read_line and write_line_now are runs of one: at the lines of a
    live offload they must walk S6, S7, S13 with its ALERT_N reissues,
    S10, S8/S9 and a wedge exactly as the per-command oracle does."""
    twins, sbuf, dbuf = _live_tls_twins()
    line = bytes(CACHELINE_SIZE)
    steps = (
        lambda mc: mc.read_line(sbuf),  # S6: feeds line 0
        lambda mc: mc.write_line_now(dbuf, line),  # S7: line 0 not ready yet
        lambda mc: mc.read_line(dbuf),  # S13, reissued until S10 serves
        lambda mc: mc.write_line_now(dbuf, line),  # S8/S9: self-recycle
        lambda mc: mc.read_line(dbuf),  # RECYCLED: DRAM
        lambda mc: mc.read_line(dbuf + CACHELINE_SIZE),  # never fed: wedge
    )
    oracle, burst = twins
    outcomes = []
    for step in steps:
        outcomes.append(outcome(lambda: step(burst.mc)))
        assert outcomes[-1] == outcome(lambda: step(oracle.mc))
        assert_same(oracle, burst)
    stats = burst.device.stats
    assert (stats.dsa_lines_processed, stats.ignored_writes,
            stats.scratchpad_serves, stats.self_recycles) == (1, 1, 1, 1)
    # The wedge is 65 alerts; the S13 read took at least one more.
    assert outcomes[-1] is DsaWedgedError and stats.alerts > 65


def _scratchpad_image(session):
    """Every allocated scratchpad page's bytes, line states and ready
    cycles, and each live offload's processed lines."""
    device = session.device
    pages = {index: (bytes(page.data), list(page.states), list(page.ready_cycles))
             for index, page in device.scratchpad._pages.items()}
    processed = {key: sorted(offload.processed_lines)
                 for key, offload in device._offloads.items()}
    return pages, processed


def test_burst_across_a_fed_line_feeds_two_runs(monkeypatch):
    """A source burst reaches the DSA as one run per maximal stretch of
    unprocessed lines: after line 3 is read alone, a burst over lines
    0-7 feeds lines 0-2 and 4-7 as two runs, and every line counts once,
    exactly as the per-command oracle feeds them."""
    (oracle, burst), sbuf, _ = _live_tls_twins()
    dsa = burst.device.dsas[UlpKind.TLS_ENCRYPT]
    runs = []
    process_run = dsa.process_run

    def recording(offload, writer, first_global_line, data, count):
        runs.append((first_global_line, count))
        process_run(offload, writer, first_global_line, data, count)

    monkeypatch.setattr(dsa, "process_run", recording)
    steps = (
        lambda mc: mc.read_line(sbuf + 3 * CACHELINE_SIZE),
        lambda mc: mc.read_lines(sbuf, 8),
    )
    for step in steps:
        assert step(burst.mc) == step(oracle.mc)
        assert_same(oracle, burst)
        assert _scratchpad_image(burst) == _scratchpad_image(oracle)
    assert runs == [(3, 1), (0, 3), (4, 4)]
    assert burst.device.stats.dsa_lines_processed == 8


# -- single-path regressions ------------------------------------------------------


def test_free_page_accounting_exact_fit():
    """S1: a copy needing exactly the scratchpad's capacity must register
    without a Force-Recycle — the guard and the decrement both use the
    `pages` bound, not an off-by-one."""
    pages = 4
    config = SmartDIMMConfig(scratchpad_pages=pages)
    session = SmartDIMMSession(SessionConfig(smartdimm=config))
    # len(plaintext) + 16-byte tag exactly fills `pages` registered pages.
    payload = _payload(pages * PAGE_SIZE - 16)
    out = session.tls_encrypt(KEY, NONCE, payload, AAD)
    assert session.compcpy.stats.force_recycles == 0
    assert session.compcpy.stats.free_page_refreshes == 1
    expected = cached_aesgcm(KEY).encrypt(NONCE, payload, AAD)
    assert out == expected[0] + expected[1]


def test_scratchpad_writeback_reports_completion():
    """S2: scratchpad_writeback_line returns True even when the DSA has not
    finished the line yet — the ALERT_N retry loop backs off and completes
    the writeback rather than reporting partial failure."""
    session = SmartDIMMSession(SessionConfig())
    size = PAGE_SIZE
    sbuf, dbuf, offload = _compcpy_offload(session, size, flush_destination=False)
    # Pick a destination line the DSA has computed; its ready cycle may
    # still be in the future, which is exactly the retry-loop case.
    assert session.mc.scratchpad_writeback_line(dbuf) is True
    assert session.mc.stats.scratchpad_writebacks == 1


def test_address_decode_matches_reference():
    """The reference is :meth:`AddressMapping.encode`, the Addr Remap
    inverse: on every line of 16-row, 16-column mappings with 1, 2 and 4
    channels in both interleave modes it must undo `decode`, and every
    decoded field must lie inside the geometry."""
    for channels in (1, 2, 4):
        for interleave in InterleaveMode:
            mapping = AddressMapping(channels=channels, rows=16,
                                     columns_per_row=16, interleave=interleave)
            for address in range(0, mapping.total_capacity, CACHELINE_SIZE):
                coordinate = mapping.decode(address)
                assert mapping.encode(coordinate) == address
                assert coordinate.channel < channels
                assert coordinate.bank_group < mapping.bank_groups
                assert coordinate.bank < mapping.banks_per_group
                assert coordinate.row < mapping.rows
                assert coordinate.column < mapping.columns_per_row


def test_run_length_covers_page_runs():
    """run_length(addr) must equal the remaining lines of the page run that
    contains addr, for every line of several pages."""
    session = SmartDIMMSession(SessionConfig())
    mapping = session.mapping
    for page_number in (0, 1, 7):
        runs = mapping.page_runs(page_number)
        assert sum(count for _, count in runs) == PAGE_SIZE // CACHELINE_SIZE
        for start, count in runs:
            for line in range(start, start + count):
                address = page_number * PAGE_SIZE + line * CACHELINE_SIZE
                assert mapping.run_length(address) == start + count - line
