"""Sec. IV-A claim: flushing 4KB is ~50% faster when already in DRAM.

CompCpy flushes the source buffer before every offload; the paper argues
this is cheap exactly when offload engages (under contention the buffer has
already been evicted).  We measure the modelled flush cost of a 4KB buffer
in both states through the functional LLC.
"""

from repro.cache.llc import LLC
from repro.cpu.flush import FlushDriver
from repro.dram.address import AddressMapping
from repro.dram.memory_controller import MemoryController, PlainDIMM
from repro.dram.physical_memory import PhysicalMemory


def _measure():
    mapping = AddressMapping(rows=1 << 8)
    mc = MemoryController(mapping, {0: PlainDIMM(PhysicalMemory(8 * 1024 * 1024))})
    llc = LLC(mc, size=64 * 1024, ways=8)
    driver = FlushDriver(llc)
    # Dirty-in-cache flush.
    for offset in range(0, 4096, 64):
        llc.store(offset, bytes([offset & 0xFF]) * 64)
    hot = driver.flush_range(0, 4096)
    # Already-in-DRAM flush of the same range.
    cold = driver.flush_range(0, 4096)
    return hot, cold


def test_flush_cost_asymmetry():
    hot, cold = _measure()
    speedup = 1.0 - cold.cycles / hot.cycles
    print("\n" + "\n".join([
        "Sec. IV-A claim — flush(4KB) cost by residency",
        f"dirty-in-LLC:    {hot.cycles:8.0f} cycles ({hot.dirty_lines} writebacks)",
        f"already-in-DRAM: {cold.cycles:8.0f} cycles ({cold.dirty_lines} writebacks)",
        f"reduction:       {speedup:8.1%}  (paper: ~50%)",
    ]))
    assert hot.dirty_lines == 64
    assert cold.dirty_lines == 0
    assert 0.45 < speedup < 0.55
