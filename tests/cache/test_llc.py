"""Functional LLC: hits/misses, LRU, writebacks, CAT, DDIO."""

import pytest

from repro.cache.llc import LLC
from repro.dram.address import AddressMapping
from repro.dram.memory_controller import MemoryController, PlainDIMM
from repro.dram.physical_memory import PhysicalMemory


def _system(cache_size=16 * 1024, ways=4, dma_way_mask=0b11):
    mapping = AddressMapping(rows=1 << 8)
    memory = PhysicalMemory(8 * 1024 * 1024)
    mc = MemoryController(mapping, {0: PlainDIMM(memory)})
    llc = LLC(mc, size=cache_size, ways=ways, dma_way_mask=dma_way_mask)
    return llc, mc, memory


def test_miss_then_hit():
    llc, _, memory = _system()
    memory.write_line(0, b"\x0a" * 64)
    assert llc.load(0) == b"\x0a" * 64
    assert llc.stats.misses == 1
    assert llc.load(0) == b"\x0a" * 64
    assert llc.stats.hits == 1


def test_store_makes_line_dirty_and_visible():
    llc, mc, memory = _system()
    llc.store(64, b"\x0b" * 64)
    assert llc.load(64) == b"\x0b" * 64
    # Not yet in DRAM (write-back policy).
    mc.fence()
    assert memory.read_line(64) == bytes(64)


def test_full_line_store_skips_fill_read():
    llc, mc, _ = _system()
    reads_before = mc.stats.reads
    llc.store(128, b"\x0c" * 64)
    assert mc.stats.reads == reads_before


def test_eviction_writes_back_dirty_data():
    llc, mc, memory = _system(cache_size=4 * 64 * 4, ways=4)  # 4 sets
    sets = llc.num_sets
    base = 0
    llc.store(base, b"\xdd" * 64)
    # 4 more lines mapping to the same set force the dirty line out.
    for i in range(1, 5):
        llc.load(base + i * sets * 64)
    mc.fence()
    assert memory.read_line(base) == b"\xdd" * 64
    assert llc.stats.writebacks >= 1


def test_lru_evicts_least_recent():
    llc, _, _ = _system(cache_size=4 * 64 * 4, ways=4)
    sets = llc.num_sets
    addresses = [i * sets * 64 for i in range(4)]
    for address in addresses:
        llc.load(address)
    llc.load(addresses[0])  # refresh line 0
    llc.load(4 * sets * 64)  # evicts the LRU line, which is addresses[1]
    assert llc.contains(addresses[0])
    assert not llc.contains(addresses[1])


def test_flush_line_reports_dirtiness():
    llc, _, memory = _system()
    llc.store(0, b"\xee" * 64)
    assert llc.flush_line(0) is True  # dirty -> writeback happened
    assert memory.read_line(0) == b"\xee" * 64
    assert not llc.contains(0)
    assert llc.flush_line(0) is False  # already gone: the cheap case


def test_flush_range_counts_dirty_lines():
    llc, _, _ = _system()
    for offset in range(0, 256, 64):
        llc.store(offset, bytes([offset % 256]) * 64)
    llc.load(512)
    assert llc.flush_range(0, 256) == 4
    assert llc.flush_range(512, 64) == 0  # clean line


@pytest.mark.parametrize("flush", ["flush_range"])
@pytest.mark.parametrize("address, length, flushed", [
    (10, 0, []),  # empty range at an unaligned address
    (64, 0, []),  # empty range at an aligned address
    (10, 60, [0, 1]),  # [10, 70) ends mid-line 1
    (0, 100, [0, 1]),  # [0, 100) ends mid-line 1
])
def test_flush_range_covers_exactly_the_lines_the_range_touches(
        flush, address, length, flushed):
    llc, mc, _ = _system()
    for line in range(3):
        llc.store(line * 64, bytes([line + 1]) * 64)
    assert getattr(llc, flush)(address, length) == len(flushed)
    assert [line for line in range(3) if not llc.contains(line * 64)] == flushed
    assert llc.stats.flushes == len(flushed)
    assert llc.stats.writebacks == len(flushed)


def test_cat_way_mask_restricts_allocation():
    llc, _, _ = _system(cache_size=4 * 64 * 8, ways=8)
    llc.set_cpu_way_mask(0b0001)  # one way only
    sets = llc.num_sets
    llc.load(0)
    llc.load(sets * 64)  # same set, must evict the only allowed way
    assert not llc.contains(0)
    assert llc.resident_lines == 1


def test_cat_mask_must_be_nonzero():
    llc, _, _ = _system()
    with pytest.raises(ValueError):
        llc.set_cpu_way_mask(0)


@pytest.mark.parametrize(
    "masks", [dict(cpu_way_mask=0), dict(cpu_way_mask=0b110000), dict(dma_way_mask=0)]
)
def test_constructor_rejects_a_mask_that_selects_no_way(masks):
    mapping = AddressMapping(rows=1 << 8)
    mc = MemoryController(mapping, {0: PlainDIMM(PhysicalMemory(1 << 20))})
    with pytest.raises(ValueError):
        LLC(mc, size=16 * 1024, ways=4, **masks)


def test_rejected_cat_mask_leaves_the_old_one():
    llc, _, _ = _system()
    llc.set_cpu_way_mask(0b0011)
    for mask in (0, 0b110000):
        with pytest.raises(ValueError):
            llc.set_cpu_way_mask(mask)
        assert llc.cpu_way_mask == 0b0011
    llc.load(0)  # still allocates under the kept mask
    assert llc.contains(0)


def test_effective_cpu_size_follows_mask():
    llc, _, _ = _system(cache_size=4 * 64 * 8, ways=8)
    full = llc.effective_cpu_size
    llc.set_cpu_way_mask(0b1111)
    assert llc.effective_cpu_size == full // 2


def test_ddio_confines_dma_fills():
    llc, _, _ = _system(cache_size=4 * 64 * 8, ways=8, dma_way_mask=0b11)
    sets = llc.num_sets
    # 4 DMA lines to one set: only 2 ways allowed, so 2 must be evicted.
    for i in range(4):
        llc.dma_write(i * sets * 64, bytes([i]) * 64)
    resident = sum(llc.contains(i * sets * 64) for i in range(4))
    assert resident == 2
    assert llc.stats.dma_fills == 4


def test_dma_leak_counts_untouched_evictions():
    llc, _, _ = _system(cache_size=4 * 64 * 8, ways=8, dma_way_mask=0b1)
    sets = llc.num_sets
    llc.dma_write(0, b"\x01" * 64)
    llc.dma_write(sets * 64, b"\x02" * 64)  # evicts the first, never touched
    assert llc.stats.dma_leaks == 1


def test_cpu_touch_clears_leak_flag():
    llc, _, _ = _system(cache_size=4 * 64 * 8, ways=8, dma_way_mask=0b1)
    sets = llc.num_sets
    llc.dma_write(0, b"\x01" * 64)
    llc.load(0)  # consumed in time
    llc.dma_write(sets * 64, b"\x02" * 64)
    assert llc.stats.dma_leaks == 0


def test_dma_write_goes_to_dram_on_eviction():
    llc, mc, memory = _system(cache_size=4 * 64 * 8, ways=8, dma_way_mask=0b1)
    sets = llc.num_sets
    llc.dma_write(0, b"\x77" * 64)
    llc.dma_write(sets * 64, b"\x88" * 64)
    mc.fence()
    assert memory.read_line(0) == b"\x77" * 64


def test_dma_read_serves_from_cache_or_memory():
    llc, mc, memory = _system()
    llc.store(0, b"\x31" * 64)
    assert llc.dma_read(0) == b"\x31" * 64  # cache hit: DDIO TX
    memory.write_line(4096, b"\x42" * 64)
    assert llc.dma_read(4096) == b"\x42" * 64  # memory


def test_writeback_all():
    llc, mc, memory = _system()
    llc.store(0, b"\x01" * 64)
    llc.store(64, b"\x02" * 64)
    llc.load(128)
    assert llc.writeback_all() == 2
    assert llc.resident_lines == 0
    assert memory.read_line(64) == b"\x02" * 64


def test_store_requires_full_line():
    llc, _, _ = _system()
    with pytest.raises(ValueError):
        llc.store(0, b"short")
    with pytest.raises(ValueError):
        llc.dma_write(0, b"short")


def test_miss_rate():
    llc, _, _ = _system()
    llc.load(0)
    llc.load(0)
    assert llc.stats.miss_rate == 0.5
