"""Fault-injected sessions on the burst path vs their per-line oracle.

SmartDIMM serves same-row CAS bursts under a ``FaultPlan`` or RAS engine
and stops a burst exactly where the per-line walk would raise, and the
LLC's chunked range reads stop at that line too.  Every test drives twin
sessions through the same workload: the *oracle* twin
(:func:`tests.micro_oracle.oracle_session`) runs every range operation
line by line, so every line is its own ``Command``, address regeneration
and translation lookup, walked through the Fig. 6 data states by
:class:`tests.micro_oracle.PerCommandSmartDIMM`; the *burst* twin sends
every data CAS, single lines and ALERT_N reissues included, through
``read_line_run`` and ``write_line_run``.  After every op the twins must
agree on the output or exception type and on everything
:func:`tests.micro_oracle.assert_same` compares: controller, LLC, device,
CompCpy and resilience stats, cycle, trace, write queue, RAS report, plan
report, ECC stats and DRAM contents.
"""

import pytest

from repro.core.dsa.base import UlpKind
from repro.core.dsa.tls_dsa import TLSOffloadContext
from repro.core.offload_api import TAG_SIZE, SessionConfig, SmartDIMMSession
from repro.dram.address import AddressMapping
from repro.dram.commands import CACHELINE_SIZE, LINES_PER_PAGE, PAGE_SIZE
from repro.dram.memory_controller import MemoryController, PlainDIMM
from repro.dram.physical_memory import PhysicalMemory
from repro.dram.ras import MemoryRas, RasConfig
from repro.faults.errors import PoisonError
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


def _payload(size: int, salt: int = 0) -> bytes:
    return bytes((13 * i + 7 * salt + (i >> 7)) & 0xFF for i in range(size))


def _session(specs=(), seed=0, ras=None, oracle=False):
    config = SessionConfig(
        memory_bytes=16 * 1024 * 1024, llc_bytes=256 * 1024, trace=True,
        fault_plan=FaultPlan(seed=seed, specs=specs),
        ras=ras or RasConfig(scrub_lines_per_pass=0),
    )
    return oracle_session(config) if oracle else SmartDIMMSession(config)


def _twins(specs=(), seed=0, ras=None):
    """(oracle, burst) sessions over the same plan and RAS config."""
    return (_session(specs, seed, ras, oracle=True),
            _session(specs, seed, ras))


def _both(twins, call):
    """Run `call` on each twin, then require identical outcomes and state."""
    oracle, burst = twins
    expected = outcome(lambda: call(oracle))
    assert outcome(lambda: call(burst)) == expected
    assert_same(oracle, burst)
    return expected


# -- a PoisonError at a chosen line ----------------------------------------------


def _at_rest(session, pages=1):
    """A plain (unregistered) buffer written and flushed out of the LLC."""
    base = session.driver.alloc_pages(pages)
    session.write(base, _payload(pages * PAGE_SIZE))
    session.llc.flush_range(base, pages * PAGE_SIZE)
    session.mc.fence()
    return base


@pytest.mark.parametrize("line", [0, 1, 5, 17, 63])
def test_poison_in_a_plain_page_burst(line):
    twins = _twins()
    bases = [_at_rest(session) for session in twins]
    assert bases[0] == bases[1]
    base = bases[0]
    for session in twins:
        session.ras.inject_flips(base + line * CACHELINE_SIZE, bits=2)
    assert _both(twins, lambda s: s.read(base, PAGE_SIZE)) is PoisonError
    assert twins[1].ras.report()["poison_reads"] == 1
    # The burst stopped at the poisoned line, whose issue was charged.
    assert twins[1].mc.trace[-1].address == base + line * CACHELINE_SIZE
    # A rewrite repairs the line; the page then reads in full.
    _both(twins, lambda s: s.write(base + line * CACHELINE_SIZE,
                                   bytes(CACHELINE_SIZE)))
    _both(twins, lambda s: s.llc.flush_range(base, PAGE_SIZE))
    assert len(_both(twins, lambda s: s.read(base, PAGE_SIZE))) == PAGE_SIZE


def _poison_source_after_registration(session, line):
    """Flip two bits of source line `line` once the offload registers:
    CompCpy has flushed the source by then, so the copy reads them."""
    register = session.driver.register_offload

    def register_then_poison(kind, context, sbuf, dbuf, pages, **kwargs):
        session.driver.register_offload = register
        offload = register(kind, context, sbuf, dbuf, pages, **kwargs)
        session.ras.inject_flips(sbuf + line * CACHELINE_SIZE, bits=2)
        return offload

    session.driver.register_offload = register_then_poison


@pytest.mark.parametrize("line", [0, 5, 63, LINES_PER_PAGE + 17])
def test_poison_on_a_source_line_inside_a_tls_copy(line):
    twins = _twins()
    payload = _payload(2 * PAGE_SIZE - TAG_SIZE)
    nonce = bytes(12)
    for session in twins:
        _poison_source_after_registration(session, line)
    out = _both(twins, lambda s: s.tls_encrypt(KEY, nonce, payload))
    ct, tag = AESGCM(KEY).encrypt(nonce, payload, b"")
    assert out == ct + tag  # onloaded
    burst = twins[1]
    assert burst.resilience_stats.onloaded_ops == 1
    assert burst.ras.report()["poison_reads"] == 1
    # The lines before the poisoned one reached the DSA on both twins.
    assert burst.device.stats.dsa_lines_processed == line
    assert burst.device.stats.offloads_aborted == 1
    # The next op runs on the DSA from a clean slate.
    _both(twins, lambda s: s.tls_encrypt(KEY, bytes(11) + b"\x01", payload))
    assert burst.resilience_stats.offloaded_ops == 1


def test_poison_on_a_recycled_destination_line():
    twins = _twins()
    size = PAGE_SIZE
    buffers = []
    for session in twins:
        sbuf = session.driver.alloc_pages(1)
        dbuf = session.driver.alloc_pages(1)
        session.write(sbuf, _payload(size))
        buffers.append((sbuf, dbuf))
    assert buffers[0] == buffers[1]
    sbuf, dbuf = buffers[0]

    def copy(session):
        context = TLSOffloadContext(key=KEY, nonce=bytes(12),
                                    record_length=size - TAG_SIZE)
        session.compcpy.compcpy(dbuf, sbuf, size, context, UlpKind.TLS_ENCRYPT,
                                flush_destination=False)

    # Defer the destination flush, then recycle the first four lines.
    _both(twins, copy)
    _both(twins, lambda s: s.llc.flush_range(dbuf, 4 * CACHELINE_SIZE))
    _both(twins, lambda s: s.mc.fence())
    assert twins[1].device.stats.self_recycles == 4
    for session in twins:
        session.ras.inject_flips(dbuf + 2 * CACHELINE_SIZE, bits=2)
    assert _both(twins, lambda s: s.read(dbuf, size)) is PoisonError
    assert twins[1].ras.report()["poison_reads"] == 1


def test_poison_in_a_plain_dimm_burst():
    """PlainDIMM bursts stop at a raising read too, and hand back the
    lines before it with the error."""
    results = []
    for controller, dimm in ((PerLineController, PerCommandDIMM),
                             (MemoryController, PlainDIMM)):
        memory = PhysicalMemory(4 * 1024 * 1024)
        ras = MemoryRas(memory, config=RasConfig())
        memory.attach_ras(ras)
        mc = controller(AddressMapping(rows=1 << 8), {0: dimm(memory)}, trace=True)
        memory.write(0, _payload(PAGE_SIZE))
        ras.inject_flips(9 * CACHELINE_SIZE, bits=2)
        data, error = mc.read_lines(0, LINES_PER_PAGE)
        assert isinstance(error, PoisonError)
        assert data == _payload(9 * CACHELINE_SIZE)
        results.append(mc)
    oracle, burst = results
    assert burst.stats == oracle.stats
    assert burst.cycle == oracle.cycle
    assert burst.trace == oracle.trace
    assert burst.stats.reads == 9


# -- fault plans over TLS, deflate and inflate ---------------------------------------

PAGE_TEXT = (b"SmartDIMM serves same-row CAS bursts under faults. " * 90)[:PAGE_SIZE]


def _ops(wset: int):
    """A mixed sequence (TLS both ways, deflate, inflate), each op followed
    by a demand read of the at-rest working set at `wset`, as the ras
    grid probes it."""
    gcm = AESGCM(KEY)
    ops = []

    def probe(session):
        session.pump_ras()
        session.llc.flush_range(wset, 2 * PAGE_SIZE)
        return session.read(wset, 2 * PAGE_SIZE)

    for i in range(8):
        nonce = i.to_bytes(12, "little")
        plain = _payload((1 + i % 3) * PAGE_SIZE - TAG_SIZE - 64 * i, salt=i)
        kind = i % 4
        if kind == 0:
            ops.append(lambda s, n=nonce, p=plain: s.tls_encrypt(KEY, n, p))
        elif kind == 1:
            ct, _ = gcm.encrypt(nonce, plain, b"")
            ops.append(lambda s, n=nonce, c=ct: s.tls_decrypt(KEY, n, c))
        elif kind == 2:
            page = PAGE_TEXT[i:] + PAGE_TEXT[:i]
            ops.append(lambda s, p=page: s.deflate_page(p))
        else:
            stream = deflate_compress(PAGE_TEXT[:3000 + i])
            ops.append(lambda s, z=stream: s.inflate_page(z))
        ops.append(probe)
    return ops


def _read_raised(session) -> bool:
    return bool(session.mc.stats.wedges or session.ras.stats.poison_reads)


@pytest.mark.parametrize("name", sorted(PLANS))
def test_fault_plans_match_the_per_command_path(name):
    specs = PLANS[name]
    ras = DENSE_FLIPS if name == "cell_flip" else None
    twins = _twins(specs, seed=0, ras=ras)
    wsets = {_at_rest(session, pages=2) for session in twins}
    assert len(wsets) == 1
    for op in _ops(wsets.pop()):
        _both(twins, op)
    plan = twins[1].config.fault_plan
    assert plan.fire_count(specs[0].site) > 0
    # The wedge and dense flips make reads raise mid-range, where the
    # chunked LLC reads must stop exactly where the per-line loop raises.
    assert _read_raised(twins[1]) == (name in ("wedge", "cell_flip"))
