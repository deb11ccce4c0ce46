"""Write-queue semantics: forwarding, watermark draining, and bypass.

The queue is the one piece of controller state both the burst path and
its per-line oracle (:mod:`tests.micro_oracle`) mutate, so its contract
is pinned here for both: reads forward the youngest queued copy, the high
watermark drains down to ``WRITE_QUEUE_DRAIN_TO``, and ``write_line_now``
removes any queued copy before issuing.
"""

import pytest

from repro.dram.address import AddressMapping
from repro.dram.commands import CACHELINE_SIZE
from repro.dram.memory_controller import MemoryController, PlainDIMM, TimingParams
from repro.dram.physical_memory import PhysicalMemory
from tests.micro_oracle import PerCommandDIMM, PerLineController


def _system(oracle=False):
    mapping = AddressMapping(rows=1 << 8)
    memory = PhysicalMemory(min(mapping.total_capacity, 16 * 1024 * 1024))
    controller, dimm = ((PerLineController, PerCommandDIMM) if oracle
                        else (MemoryController, PlainDIMM))
    mc = controller(mapping, {0: dimm(memory)}, TimingParams())
    return mc, memory


@pytest.fixture(params=[True, False], ids=["reference", "batch"])
def system(request):
    return _system(oracle=request.param)


def test_read_forwards_youngest_queued_write(system):
    mc, memory = system
    mc.write_line(0x5000, b"\x01" * 64)
    mc.write_line(0x5000, b"\x02" * 64)  # overwrites the queued copy
    assert mc.read_line(0x5000) == b"\x02" * 64
    assert mc.stats.forwarded_reads == 1
    assert memory.read_line(0x5000) == bytes(64)  # still not drained


def test_read_lines_forwards_per_line(system):
    """A batched read mixing queued and unqueued lines forwards exactly the
    queued ones and fetches the rest from DRAM."""
    mc, memory = system
    memory.write_line(0x6000, b"\xaa" * 64)
    memory.write_line(0x6040, b"\xbb" * 64)
    mc.write_line(0x6040, b"\xcc" * 64)  # shadows DRAM for the middle line
    data, error = mc.read_lines(0x6000, 3)
    assert error is None
    assert data == b"\xaa" * 64 + b"\xcc" * 64 + bytes(64)
    assert mc.stats.forwarded_reads == 1


def test_watermark_drains_to_target(system):
    mc, _ = system
    for i in range(MemoryController.WRITE_QUEUE_HIGH_WATERMARK):
        mc.write_line(i * CACHELINE_SIZE, bytes([i % 251]) * 64)
    assert len(mc._write_queue) == MemoryController.WRITE_QUEUE_DRAIN_TO
    drained = (
        MemoryController.WRITE_QUEUE_HIGH_WATERMARK
        - MemoryController.WRITE_QUEUE_DRAIN_TO
    )
    assert mc.stats.writes == drained


def test_write_line_now_removes_queued_copy(system):
    mc, memory = system
    mc.write_line(0x7000, b"\x10" * 64)  # queued
    mc.write_line_now(0x7000, b"\x20" * 64)  # bypass must supersede it
    assert 0x7000 not in mc._write_queue
    assert memory.read_line(0x7000) == b"\x20" * 64
    mc.fence()  # draining must not resurrect the stale copy
    assert memory.read_line(0x7000) == b"\x20" * 64


def test_write_lines_now_removes_queued_copies(system):
    mc, memory = system
    mc.write_line(0x8000, b"\x01" * 64)
    mc.write_line(0x8040, b"\x02" * 64)
    mc.write_lines_now(0x8000, [b"\x03" * 64, b"\x04" * 64])
    assert 0x8000 not in mc._write_queue and 0x8040 not in mc._write_queue
    assert memory.read_line(0x8000) == b"\x03" * 64
    assert memory.read_line(0x8040) == b"\x04" * 64
    mc.fence()
    assert memory.read_line(0x8000) == b"\x03" * 64


def test_fence_empties_queue(system):
    mc, memory = system
    for i in range(4):
        mc.write_line(0x9000 + i * CACHELINE_SIZE, b"\x55" * CACHELINE_SIZE)
    mc.fence()
    assert not mc._write_queue
    assert memory.read(0x9000, 4 * CACHELINE_SIZE) == b"\x55" * (4 * CACHELINE_SIZE)


def test_batch_and_reference_paths_drain_identically():
    """Same workload on the burst path and its oracle: identical queue
    contents, stats, cycle, and backing-memory state after a watermark
    drain plus a fence."""
    results = []
    for oracle in (True, False):
        mc, memory = _system(oracle=oracle)
        for i in range(MemoryController.WRITE_QUEUE_HIGH_WATERMARK + 5):
            mc.write_line(i * CACHELINE_SIZE, bytes([(3 * i) % 251]) * 64)
        snapshot_queue = dict(mc._write_queue)
        mc.fence()
        results.append(
            (
                snapshot_queue,
                mc.stats,
                mc.cycle,
                memory.read(0, (MemoryController.WRITE_QUEUE_HIGH_WATERMARK + 5) * 64),
            )
        )
    assert results[0] == results[1]
