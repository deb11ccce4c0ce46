"""Fault-injected sessions on the burst path vs the per-command device path.

SmartDIMM serves same-row CAS bursts under a ``FaultPlan`` or RAS engine
and stops a burst exactly where the per-command arbiter walk would raise.
Every test drives twin sessions through the same workload: on the
*per-command* twin the device answers ``bulk_ok`` False, so every line is
its own ``Command``, address regeneration and translation lookup; the
*burst* twin takes ``read_line_run``/``write_line_run``.  After every op
the twins must agree on the output or exception type, controller stats,
cycle and trace, LLC stats, device stats, RAS report, plan report and ECC
stats.  Where no read raises, the per-line reference path
(``fast_path=False``) must agree too; once a read raises, the LLC's chunk
prefetch and its per-line loop fill different lines, so it is left out.
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
from repro.faults.plan import FaultPlan, FaultSite, FaultSpec
from repro.ulp.deflate import deflate_compress
from repro.ulp.gcm import AESGCM

KEY = bytes(range(16))


def _payload(size: int, salt: int = 0) -> bytes:
    return bytes((13 * i + 7 * salt + (i >> 7)) & 0xFF for i in range(size))


def _session(specs=(), seed=0, ras=None, per_command=False, fast_path=True):
    session = SmartDIMMSession(SessionConfig(
        memory_bytes=16 * 1024 * 1024, llc_bytes=256 * 1024, trace=True,
        fast_path=fast_path, fault_plan=FaultPlan(seed=seed, specs=specs),
        ras=ras or RasConfig(scrub_lines_per_pass=0),
    ))
    if per_command:
        session.device.bulk_ok = lambda address: False
    return session


def _twins(specs=(), seed=0, ras=None):
    """(per-command, burst) sessions over the same plan and RAS config."""
    return (_session(specs, seed, ras, per_command=True),
            _session(specs, seed, ras))


def _outcome(call):
    try:
        return call()
    except Exception as error:  # compared by type across the twins
        return type(error)


def _assert_same(ref, other):
    assert other.mc.stats == ref.mc.stats
    assert other.mc.cycle == ref.mc.cycle
    assert other.mc.trace == ref.mc.trace
    assert other.llc.stats == ref.llc.stats
    assert other.device.stats == ref.device.stats
    assert other.ras.report() == ref.ras.report()
    assert other.config.fault_plan.report() == ref.config.fault_plan.report()
    assert other.memory.ecc_stats == ref.memory.ecc_stats


def _both(twins, call):
    """Run `call` on each twin, then require identical outcomes and state."""
    ref, burst = twins
    expected = _outcome(lambda: call(ref))
    assert _outcome(lambda: call(burst)) == expected
    _assert_same(ref, burst)
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
    """PlainDIMM bursts stop at a raising read too."""
    mcs = []
    for per_command in (True, False):
        memory = PhysicalMemory(4 * 1024 * 1024)
        ras = MemoryRas(memory, config=RasConfig())
        memory.attach_ras(ras)
        dimm = PlainDIMM(memory)
        if per_command:
            dimm.bulk_ok = lambda address: False
        mc = MemoryController(AddressMapping(rows=1 << 8), {0: dimm}, trace=True)
        memory.write(0, _payload(PAGE_SIZE))
        ras.inject_flips(9 * CACHELINE_SIZE, bits=2)
        with pytest.raises(PoisonError):
            mc.read_lines(0, LINES_PER_PAGE)
        mcs.append(mc)
    ref, burst = mcs
    assert burst.stats == ref.stats
    assert burst.cycle == ref.cycle
    assert burst.trace == ref.trace
    assert burst.stats.reads == 9


# -- fault plans over TLS, deflate and inflate ---------------------------------------

PLANS = {
    "wedge": (FaultSpec(FaultSite.DSA_WEDGE, probability=0.01, skip=150,
                        max_fires=2),),
    "storm": (FaultSpec(FaultSite.DSA_ALERT_STORM, probability=0.05),),
    "corrupt1": (FaultSpec(FaultSite.DRAM_CORRUPT, probability=0.01,
                           params={"bits": 1}),),
    "corrupt2": (FaultSpec(FaultSite.DRAM_CORRUPT, probability=0.005,
                           params={"bits": 2}),),
    "sdc": (FaultSpec(FaultSite.DSA_SDC, probability=0.02),),
    "tt_insert": (FaultSpec(FaultSite.TT_INSERT, probability=0.3),),
    "exhaust": (FaultSpec(FaultSite.SCRATCHPAD_EXHAUST, probability=0.3),),
    "cell_flip": (FaultSpec(FaultSite.DRAM_CELL_FLIP, probability=1.0),),
}

#: Latent flips land often enough to pair up on the at-rest working set.
DENSE_FLIPS = RasConfig(flip_interval_cycles=16)

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
    sessions = _twins(specs, seed=0, ras=ras) + (
        _session(specs, seed=0, ras=ras, fast_path=False),)
    wsets = {_at_rest(session, pages=2) for session in sessions}
    assert len(wsets) == 1
    twins, reference = sessions[:2], sessions[2]
    compared = 0
    for op in _ops(wsets.pop()):
        expected = _both(twins, op)
        if compared is not None and _read_raised(twins[0]):
            compared = None  # a read raised: the LLC paths part ways
        if compared is not None:
            assert _outcome(lambda: op(reference)) == expected
            _assert_same(twins[0], reference)
            compared += 1
    plan = twins[1].config.fault_plan
    assert plan.fire_count(specs[0].site) > 0
    if name in ("wedge", "cell_flip"):
        assert _read_raised(twins[1])
    else:
        assert compared == len(_ops(0))
