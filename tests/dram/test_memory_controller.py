"""Memory controller: scheduling, write batching, forwarding, ALERT_N."""

import dataclasses

import pytest

from repro.dram.address import AddressMapping
from repro.dram.commands import CACHELINE_SIZE, Command, CommandType
from repro.dram.memory_controller import (
    CasResult,
    MemoryController,
    PlainDIMM,
    TimingParams,
)
from repro.dram.physical_memory import PhysicalMemory


def _system(trace=False):
    mapping = AddressMapping(rows=1 << 8)
    memory = PhysicalMemory(min(mapping.total_capacity, 16 * 1024 * 1024))
    mc = MemoryController(mapping, {0: PlainDIMM(memory)}, trace=trace)
    return mc, memory


def test_write_then_read_round_trip():
    mc, _ = _system()
    line = bytes(range(64))
    mc.write_line(0x1000, line)
    assert mc.read_line(0x1000) == line


def test_read_forwards_from_write_queue():
    mc, memory = _system()
    line = b"\xab" * 64
    mc.write_line(0x2000, line)
    # The write is still queued: DRAM has zeros, but the read must observe it.
    assert memory.read_line(0x2000) == bytes(64)
    assert mc.read_line(0x2000) == line
    assert mc.stats.forwarded_reads == 1


def test_fence_drains_writes():
    mc, memory = _system()
    mc.write_line(0x3000, b"\x11" * 64)
    mc.fence()
    assert memory.read_line(0x3000) == b"\x11" * 64
    assert not mc._write_queue


def test_write_queue_drains_at_watermark():
    mc, memory = _system()
    for i in range(MemoryController.WRITE_QUEUE_HIGH_WATERMARK):
        mc.write_line(i * 64, bytes([i % 256]) * 64)
    assert len(mc._write_queue) <= MemoryController.WRITE_QUEUE_DRAIN_TO
    assert mc.stats.writes > 0


def test_write_line_now_bypasses_queue():
    mc, memory = _system()
    mc.write_line(0x4000, b"\x22" * 64)  # queued
    mc.write_line_now(0x4000, b"\x33" * 64)
    assert memory.read_line(0x4000) == b"\x33" * 64
    assert 0x4000 not in mc._write_queue


def test_row_hit_miss_accounting():
    mc, _ = _system()
    mc.read_line(0)
    mc.read_line(64)  # same row: hit
    assert mc.stats.row_hits >= 1
    before = mc.stats.activates
    mc.read_line(0x400000 % mc.mapping.total_capacity)  # far away: new row
    assert mc.stats.activates > before


def test_turnaround_costs_cycles():
    mc, _ = _system()
    mc.read_line(0)
    cycle_after_read = mc.cycle
    mc.write_line_now(64, bytes(64))
    # Direction change costs the turnaround penalty on top of the CAS.
    assert mc.cycle >= cycle_after_read + mc.timing.turnaround_cycles


def test_alignment_enforced():
    mc, _ = _system()
    with pytest.raises(ValueError):
        mc.read_line(12)
    with pytest.raises(ValueError):
        mc.write_line(64, b"short")


def _smartdimm_system():
    from repro.core.offload_api import SessionConfig, SmartDIMMSession

    session = SmartDIMMSession(SessionConfig(memory_bytes=16 * 1024 * 1024,
                                             trace=True))
    return session.mc, session.memory


@pytest.mark.parametrize("build", (lambda: _system(trace=True), _smartdimm_system),
                         ids=("plain", "smartdimm"))
@pytest.mark.parametrize("lines", ([b"a" * 10], [b"a" * 10, b"b" * 64],
                                   [b"b" * 64, b"a" * 65]))
def test_burst_writes_reject_short_lines(build, lines):
    """write_line_now and write_lines_now take only whole 64-byte lines,
    and refuse a short or long one before touching the queue, the
    channel or DRAM."""
    mc, memory = build()
    mc.read_line(0x2000)  # a read, so a write would pay a turnaround
    mc.write_line(0x1000, b"\x11" * 64)  # queued: a flush would pop it

    def state():
        return (dataclasses.replace(mc.stats), mc.cycle, len(mc.trace),
                list(mc._write_queue.items()), mc._last_direction,
                memory.read(0x1000, 4 * CACHELINE_SIZE))

    before = state()
    with pytest.raises(ValueError):
        if len(lines) == 1:
            mc.write_line_now(0x1000, lines[0])
        else:
            mc.write_lines_now(0x1000, lines)
    assert state() == before


def test_unbound_channel_rejected():
    mapping = AddressMapping(channels=2, rows=1 << 8)
    with pytest.raises(ValueError):
        MemoryController(mapping, {0: PlainDIMM(PhysicalMemory(1 << 20))})


class _AlertingDIMM:
    """Asserts ALERT_N for the first N rdCAS commands to an address."""

    def __init__(self, memory, alerts):
        self.memory = memory
        self.alerts_remaining = alerts
        self.rdcas_seen = 0

    def bulk_ok(self, address):
        return False  # every CAS a Command, so each reissue reaches it

    def handle_command(self, command):
        if command.kind is CommandType.RDCAS:
            self.rdcas_seen += 1
            if self.alerts_remaining > 0:
                self.alerts_remaining -= 1
                return CasResult(alert=True)
            return CasResult(data=self.memory.read_line(command.address))
        if command.kind is CommandType.WRCAS:
            self.memory.write_line(command.address, command.data)
        return CasResult()


def test_alert_n_retries_until_data_ready():
    mapping = AddressMapping(rows=1 << 8)
    memory = PhysicalMemory(1 << 20)
    memory.write_line(0, b"\x55" * 64)
    device = _AlertingDIMM(memory, alerts=3)
    mc = MemoryController(mapping, {0: device})
    assert mc.read_line(0) == b"\x55" * 64
    assert device.rdcas_seen == 4
    assert mc.stats.alerts == 3


def test_alert_n_gives_up_eventually():
    mapping = AddressMapping(rows=1 << 8)
    device = _AlertingDIMM(PhysicalMemory(1 << 20), alerts=10_000)
    mc = MemoryController(mapping, {0: device})
    with pytest.raises(RuntimeError):
        mc.read_line(0)


def test_trace_records_cas_commands():
    mc, _ = _system(trace=True)
    mc.read_line(0x100 * 64)
    mc.write_line_now(0x200 * 64, bytes(64))
    kinds = [entry.kind for entry in mc.trace]
    assert kinds == ["rdCAS", "wrCAS"]
    assert mc.trace[0].address == 0x100 * 64


def test_bandwidth_accounting():
    mc, _ = _system()
    mc.read_line(0)
    mc.write_line_now(64, bytes(64))
    assert mc.memory_bandwidth_bytes() == 128
    assert mc.time_ns > 0


def test_bank_parallelism_beats_bank_hammering():
    """Alternating between banks overlaps ACT recovery windows; hammering
    one bank with row misses serialises on them."""
    mapping = AddressMapping(rows=1 << 8)
    memory = PhysicalMemory(mapping.total_capacity)

    def run(addresses):
        mc = MemoryController(mapping, {0: PlainDIMM(memory)})
        for address in addresses:
            mc.read_line(address)
        return mc.cycle, mc.stats.bank_conflicts

    row_bytes = mapping.columns_per_row * 64
    bank_bytes = row_bytes  # column bits exhaust into bank bits
    # Same bank, different rows every access: worst case.
    hammer = [(i * 16 * bank_bytes) % mapping.total_capacity for i in range(12)]
    # Spread over many banks: recovery windows overlap.
    spread = [(i * bank_bytes) % mapping.total_capacity for i in range(12)]
    hammer_cycles, hammer_conflicts = run(hammer)
    spread_cycles, spread_conflicts = run(spread)
    assert hammer_conflicts > 0
    assert spread_conflicts == 0
    assert hammer_cycles > spread_cycles


def test_row_hits_never_pay_bank_recovery():
    mapping = AddressMapping(rows=1 << 8)
    mc = MemoryController(mapping, {0: PlainDIMM(PhysicalMemory(mapping.total_capacity))})
    for i in range(8):
        mc.read_line(i * 64)  # same row: one ACT, then hits
    assert mc.stats.bank_conflicts == 0
    assert mc.stats.activates == 1
