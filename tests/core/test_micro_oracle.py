"""The burst path against its per-line oracle, on generated op sequences.

Each example builds a stack and its oracle from :mod:`tests.micro_oracle`
and runs the same drawn op sequence on both.  After every op the outputs,
or the exception types, must be equal, and so must every counter and
buffer the oracle module compares.  There are two kinds of stack:

* a session on a SmartDIMM channel, with no fault plan or with one of
  :data:`~tests.micro_oracle.PLANS` (and a RAS engine), driven through
  TLS both ways, deflate, inflate, deferred-flush CompCpy (its pages left
  pending or reclaimed at once), Force-Recycle, Compute DMA, a direct
  offload and its read-back, and plain buffer writes, reads, flushes and
  reads of poisoned lines; half the ops are CASes at a live offload's
  source or destination page, with or without a clock advance first:
  a single-line ``read_line`` or ``write_line_now`` (a run of one against
  :class:`~tests.micro_oracle.PerCommandSmartDIMM`'s per-command walk: S6
  on either trigger, S7, S8/S9, S10, S13 and its ALERT_N reissues, up to
  a wedge), or a ``read_lines`` or ``write_lines_now`` burst from the
  line to the end of the offload's pages, which crosses the lines a
  fresh offload was fed in order or earlier CASes fed it out of order,
  so the device must split it around them;
* a bare controller on a plain DIMM, driven through its line and range
  operations (fenced reads too), fences and poisoned lines.

The draws cross the write-queue watermark (small caches, long stores and
warm-up writes), DRAM rows (16 columns per row: a 1 KB row, four to a
page) and same-row runs, and poisoned lines make range reads raise
mid-run, where the burst path must stop exactly where the per-line loop
raises.  A write of twice the LLC left unflushed fills every set with
dirty lines, as an op of its own or right before a page transform, whose
ordered copy's fills then evict them (its bursts must stop there), and a
reclaim right after a deferred copy finds lines the DSA has not finished
(its write runs must stop there).
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dsa.base import OffloadTrigger, UlpKind
from repro.core.dsa.tls_dsa import TLSOffloadContext
from repro.core.offload_api import TAG_SIZE, SessionConfig, SmartDIMMSession
from repro.core.smartdimm import SmartDIMMConfig
from repro.dram.address import AddressMapping
from repro.dram.commands import CACHELINE_SIZE, PAGE_SIZE
from repro.dram.memory_controller import MemoryController, PlainDIMM
from repro.dram.physical_memory import PhysicalMemory
from repro.dram.ras import MemoryRas, RasConfig
from repro.faults.plan import FaultPlan
from repro.ulp.deflate import deflate_compress
from repro.ulp.gcm import AESGCM
from tests.micro_oracle import (
    DENSE_FLIPS,
    PLANS,
    PerCommandDIMM,
    PerLineController,
    assert_same,
    oracle_session,
    outcome,
)

KEY = bytes(range(16))
BUFFER_PAGES = 3  # a plain buffer the buffer ops address by line
BUFFER_LINES = BUFFER_PAGES * PAGE_SIZE // CACHELINE_SIZE
PAGE_TEXT = (b"SmartDIMM checks bursts against per-line loops. " * 90)[:PAGE_SIZE]


@functools.cache
def _payload(size: int, salt: int) -> bytes:
    return bytes((13 * i + 7 * salt + (i >> 7)) & 0xFF for i in range(size))


@functools.cache
def _stream(cut: int) -> bytes:
    return deflate_compress(PAGE_TEXT[:cut])


# -- sessions on a SmartDIMM channel ---------------------------------------------

_line = st.integers(0, BUFFER_LINES - 1)
_span = st.integers(1, 2 * PAGE_SIZE)
_salt = st.integers(0, 255)
_pages = st.integers(1, 3)

SESSION_OPS = st.one_of(
    st.tuples(st.just("tls_encrypt"), _pages, st.integers(0, 255), _salt),
    st.tuples(st.just("tls_decrypt"), _pages, st.integers(0, 255), _salt),
    st.tuples(st.just("deflate"), st.integers(0, 255), st.booleans()),
    st.tuples(st.just("inflate"), st.sampled_from((1500, 3000, 4000)),
              st.booleans()),
    st.tuples(st.just("deferred"), st.integers(1, 2), _salt),
    st.tuples(st.just("reclaim"), st.integers(1, 2), _salt),
    st.tuples(st.just("force_recycle"), st.integers(1, 2)),
    st.tuples(st.just("dma"), _pages, st.integers(0, 255), _salt),
    st.tuples(st.just("direct"), _pages, _salt),
    st.tuples(st.just("dirty"), _salt),
    st.tuples(st.just("write"), _line, _span, _salt),
    st.tuples(st.just("read"), _line, st.integers(0, CACHELINE_SIZE - 1), _span),
    st.tuples(st.just("flush"), _line, st.integers(0, 2 * PAGE_SIZE)),
    st.tuples(st.just("poison"), _line, st.integers(0, 32), _span),
    st.tuples(st.just("fence")),
    st.tuples(st.just("pump_ras")),
)

#: A CAS at a live offload's page: (how far a fresh offload feeds past
#: the line, or None to use the newest live one; its trigger is the write
#: stream; source page; line of the two pages; write; cycles the clock
#: advances first; salt; a burst to the pages' end instead of one line).
CAS_OP = st.tuples(
    st.just("cas"), st.sampled_from((None, -1, 0, 4, 32)), st.booleans(),
    st.booleans(), st.integers(0, 127), st.booleans(),
    st.sampled_from((0, 100, 1000)), _salt, st.booleans(),
)

#: Half the drawn ops are CASes (``one_of`` would flatten SESSION_OPS and
#: draw them one time in seventeen).
OPS = st.sampled_from((SESSION_OPS, CAS_OP)).flatmap(lambda ops: ops)


@st.composite
def session_scenarios(draw):
    plan = draw(st.sampled_from((None,) + tuple(sorted(PLANS))))
    llc_bytes, llc_ways = draw(st.sampled_from(
        ((16 * 1024, 4), (64 * 1024, 16), (256 * 1024, 16))))
    config = dict(
        memory_bytes=16 * 1024 * 1024, llc_bytes=llc_bytes, llc_ways=llc_ways,
        columns_per_row=draw(st.sampled_from((16, 128))),
        smartdimm=SmartDIMMConfig(scratchpad_pages=draw(st.sampled_from((8, 2048)))),
        trace=True,
    )
    seed = draw(st.integers(0, 3))
    ops = draw(st.lists(OPS, min_size=1, max_size=8))
    return plan, seed, config, ops


def _session_pair(plan, seed, config):
    sessions = []
    for build in (oracle_session, SmartDIMMSession):
        fault = {}
        if plan is not None:
            fault = dict(
                fault_plan=FaultPlan(seed=seed, specs=PLANS[plan]),
                ras=DENSE_FLIPS if plan == "cell_flip"
                else RasConfig(scrub_lines_per_pass=0))
        sessions.append(build(SessionConfig(**config, **fault)))
    return sessions


def _tls_context(size, salt):
    return TLSOffloadContext(key=KEY, nonce=salt.to_bytes(12, "little"),
                             record_length=size - TAG_SIZE)


def _deferred(session, pages, salt, reclaim):
    """One TLS CompCpy that leaves its plaintext copies dirty in the LLC
    and its scratchpad pages pending.  With `reclaim` the driver reclaims
    the destination at once, last page first (its tag line finalises
    last), so it meets lines the DSA is still computing; then both
    buffers are freed."""
    size = pages * PAGE_SIZE
    sbuf = session.driver.alloc_pages(pages)
    dbuf = session.driver.alloc_pages(pages)
    session.write(sbuf, _payload(size, salt))
    session.compcpy.compcpy(dbuf, sbuf, size, _tls_context(size, salt),
                            UlpKind.TLS_ENCRYPT, flush_destination=False)
    if reclaim:
        first = dbuf // PAGE_SIZE
        for page in reversed(range(first, first + pages)):
            session.driver.reclaim_page(page)
        session.free(sbuf)
        session.free(dbuf)


def _direct(session, pages, salt):
    """A TLS direct offload (compute reads, no cache traffic) and its
    read-back through the LLC, cleaned up as the session's own offload
    body cleans up: abort on a fault, then free both buffers."""
    size = pages * PAGE_SIZE
    sbuf = session.driver.alloc_pages(pages)
    dbuf = session.driver.alloc_pages(pages)
    offload = None
    try:
        session.write(sbuf, _payload(size, salt))
        offload = session.direct_offload.offload(
            dbuf, sbuf, size, _tls_context(size, salt), UlpKind.TLS_ENCRYPT)
        return session.direct_offload.read_result(dbuf, size - TAG_SIZE + 1)
    except Exception:
        if offload is not None:
            session.driver.abort_offload(offload)
        raise
    finally:
        session.free(sbuf)
        session.free(dbuf)


def _live_offload(session, fed, dma, salt):
    """The newest offload live on the device.  When `fed` is not None, or
    none is live, every live offload is aborted and a fresh two-page TLS
    offload is registered over a flushed source, with only its first
    `fed` source lines fed to the DSA (read, or written on the write
    trigger): later lines are still to feed, and the last fed ones come
    ready only after the burst."""
    offloads = session.device._offloads
    if fed is not None or not offloads:
        for offload in list(offloads.values()):
            session.driver.abort_offload(offload)
        size = 2 * PAGE_SIZE
        sbuf = session.driver.alloc_pages(2)
        dbuf = session.driver.alloc_pages(2)
        plaintext = _payload(size, salt)
        session.write(sbuf, plaintext)
        session.llc.flush_range(sbuf, size)
        session.mc.fence()
        session.driver.register_offload(
            UlpKind.TLS_ENCRYPT, _tls_context(size, salt), sbuf, dbuf, 2,
            OffloadTrigger.SOURCE_WRITE if dma else OffloadTrigger.SOURCE_READ)
        fed = fed or 0
        if dma:
            session.mc.write_lines_now(sbuf, [
                plaintext[m << 6 : (m + 1) << 6] for m in range(fed)])
        else:
            session.mc.read_lines(sbuf, fed)
    return offloads[max(offloads)]


def _cas(session, lag, dma, source, line, write, advance, salt, burst):
    """One ``read_line`` or ``write_line_now`` at `line` of a live
    offload's two source or destination pages, after moving the clock
    `advance` cycles on (a CPU doing other work); with `burst`, a
    ``read_lines`` or ``write_lines_now`` from `line` to the end of the
    two pages.  With `lag` not None the offload is a fresh one fed up to
    `lag` lines past `line`: -1 leaves the line next to feed, 0 makes it
    the last one fed.  A fresh offload under a burst takes the burst's
    direction as its trigger, so a source burst crosses the lines fed
    before it and feeds the rest; the newest live offload (`lag` None)
    keeps its trigger and the lines earlier CASes fed it out of order."""
    fed = None if lag is None else min(line + 1 + lag, 128)
    offload = _live_offload(session, fed, write if burst else dma, salt)
    pages = offload.sbuf_pages if source else offload.dbuf_pages
    page, line = divmod(line, 64)
    address = pages[page % len(pages)] * PAGE_SIZE + line * CACHELINE_SIZE
    session.mc.cycle += advance
    if not burst:
        if write:
            return session.mc.write_line_now(address, _payload(CACHELINE_SIZE, salt))
        return session.mc.read_line(address)
    count = 64 * (len(pages) - page % len(pages)) - line
    if write:
        return session.mc.write_lines_now(address, [
            _payload(CACHELINE_SIZE, salt + m) for m in range(count)])
    data, error = session.mc.read_lines(address, count)
    if error is not None:
        raise error
    return data


def _dirty(session, salt):
    """Write twice the LLC's capacity and leave it unflushed: every set
    ends full of dirty lines, and the buffer's pages go back to the
    allocator for the next offloads to reuse."""
    size = 2 * session.config.llc_bytes
    buffer = session.alloc(size)
    session.write(buffer, _payload(size, salt & 3))
    session.free(buffer)


def _apply_session(session, base, op):
    kind, *args = op
    if kind in ("tls_encrypt", "tls_decrypt", "dma"):
        pages, trim, salt = args
        nonce = salt.to_bytes(12, "little")
        payload = _payload(pages * PAGE_SIZE - TAG_SIZE - trim, salt)
        if kind == "tls_encrypt":
            return session.tls_encrypt(KEY, nonce, payload)
        if kind == "dma":
            return session.tls_encrypt_dma(KEY, nonce, payload)
        ciphertext, _ = AESGCM(KEY).encrypt(nonce, payload, b"")
        return session.tls_decrypt(KEY, nonce, ciphertext)
    if kind in ("deflate", "inflate"):
        arg, dirty = args
        if dirty:
            # Right before the copy: an op in between would flush lines
            # and free the ways the ordered copy's fills take.
            _dirty(session, arg)
        if kind == "deflate":
            return session.deflate_page(PAGE_TEXT[arg:] + PAGE_TEXT[:arg])
        return session.inflate_page(_stream(arg))
    if kind in ("deferred", "reclaim"):
        return _deferred(session, *args, reclaim=kind == "reclaim")
    if kind == "direct":
        return _direct(session, *args)
    if kind == "dirty":
        return _dirty(session, *args)
    if kind == "cas":
        return _cas(session, *args)
    if kind == "force_recycle":
        return session.compcpy.force_recycle(args[0])
    if kind == "fence":
        return session.mc.fence()
    if kind == "pump_ras":
        return session.pump_ras()
    address = base + args[0] * CACHELINE_SIZE
    end = base + BUFFER_LINES * CACHELINE_SIZE
    if kind == "write":
        return session.write(address, _payload(min(args[1], end - address), args[2]))
    if kind == "read":
        address += args[1]
        return session.read(address, min(args[2], end - address))
    if kind == "flush":
        return session.llc.flush_range(address, min(args[1], end - address))
    # poison: write the line home, give it two latent flips (a UE that a
    # read from DRAM raises), then read a range from `lead` lines before.
    session.llc.flush_range(address, CACHELINE_SIZE)
    if session.ras is not None:
        session.ras.inject_flips(address, bits=2)
    start = max(base, address - args[1] * CACHELINE_SIZE)
    return session.read(start, min(address - start + args[2], end - start))


@settings(max_examples=80, deadline=None)
@given(session_scenarios())
def test_sessions_match_their_per_line_oracle(scenario):
    plan, seed, config, ops = scenario
    pair = _session_pair(plan, seed, config)
    bases = set()
    for session in pair:
        base = session.driver.alloc_pages(BUFFER_PAGES)
        # Dirty the buffer and leave its second half in DRAM, so reads
        # mix hits with miss runs and the write queue starts part full.
        half = BUFFER_PAGES * PAGE_SIZE // 2
        session.write(base, _payload(2 * half, 1))
        session.llc.flush_range(base + half, half)
        bases.add(base)
    assert len(bases) == 1
    base = bases.pop()
    oracle, burst = pair
    assert_same(oracle, burst)
    for op in ops:
        expected = outcome(lambda: _apply_session(oracle, base, op))
        assert outcome(lambda: _apply_session(burst, base, op)) == expected, op
        assert_same(oracle, burst)


# -- bare controllers on a plain DIMM ------------------------------------------------

MEMORY_LINES = 256  # small, so range reads often span queued lines
_mc_line = st.integers(0, MEMORY_LINES - 1)
_count = st.integers(1, 64)  # past the write queue's 48-entry watermark

CONTROLLER_OPS = st.one_of(
    st.tuples(st.just("read_line"), _mc_line),
    st.tuples(st.just("read_lines"), _mc_line, _count),
    st.tuples(st.just("read_lines_fenced"), _mc_line, _count),
    st.tuples(st.just("write_line"), _mc_line, _salt),
    st.tuples(st.just("write_line_now"), _mc_line, _salt),
    st.tuples(st.just("write_lines_now"), _mc_line, _count, _salt),
    st.tuples(st.just("poison"), _mc_line),
    st.tuples(st.just("fence")),
)


def _controller(oracle: bool, ras: bool):
    # 16 lines per DRAM row and four banks, so runs and drains cross rows
    # and reopen banks.
    mapping = AddressMapping(bank_groups=2, banks_per_group=2, rows=1 << 8,
                             columns_per_row=16)
    memory = PhysicalMemory(MEMORY_LINES * CACHELINE_SIZE)
    memory.write(0, _payload(MEMORY_LINES * CACHELINE_SIZE, 3))
    engine = MemoryRas(memory, config=RasConfig()) if ras else None
    if engine is not None:
        memory.attach_ras(engine)
    controller, dimm = ((PerLineController, PerCommandDIMM) if oracle
                        else (MemoryController, PlainDIMM))
    return controller(mapping, {0: dimm(memory)}, trace=True), memory, engine


def _apply_controller(mc, ras, op):
    kind, *args = op
    if kind == "fence":
        return mc.fence()
    address = args[0] * CACHELINE_SIZE
    if kind == "read_line":
        return mc.read_line(address)
    if kind in ("write_line", "write_line_now"):
        return getattr(mc, kind)(address, _payload(CACHELINE_SIZE, args[1]))
    if kind == "poison":
        return ras.inject_flips(address, bits=2) if ras is not None else None
    count = min(args[1], MEMORY_LINES - args[0])
    if kind in ("read_lines", "read_lines_fenced"):
        data, error = getattr(mc, kind)(address, count)
        return data, type(error)
    return mc.write_lines_now(address, [
        _payload(CACHELINE_SIZE, args[2] + m) for m in range(count)])


def _controller_state(mc, memory, checked):
    """State to compare; the trace only past the `checked` entries
    already compared (it is append-only)."""
    return (mc.stats, mc.cycle, len(mc.trace), mc.trace[checked:],
            list(mc._write_queue.items()),
            memory.read(0, MEMORY_LINES * CACHELINE_SIZE))


@settings(max_examples=100, deadline=None)
@given(ras=st.booleans(), warm=st.integers(0, 100),
       ops=st.lists(CONTROLLER_OPS, min_size=1, max_size=40))
def test_plain_dimm_controllers_match_their_per_line_oracle(ras, warm, ops):
    (oracle, oracle_memory, oracle_ras), (burst, burst_memory, burst_ras) = (
        _controller(side, ras) for side in (True, False))
    # Warm-up writes leave the queue at any depth, so runs start near
    # the watermark as well as far from it.
    for m in range(warm):
        for mc in (oracle, burst):
            mc.write_line((MEMORY_LINES // 2 + m) % MEMORY_LINES * CACHELINE_SIZE,
                          _payload(CACHELINE_SIZE, m))
    checked = 0
    for op in ops:
        expected = outcome(lambda: _apply_controller(oracle, oracle_ras, op))
        assert outcome(lambda: _apply_controller(burst, burst_ras, op)) == expected, op
        state = _controller_state(burst, burst_memory, checked)
        assert state == _controller_state(oracle, oracle_memory, checked), op
        checked = len(burst.trace)
