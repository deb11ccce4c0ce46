"""The line-indexed LLC against the per-line cache it replaced.

:class:`ReferenceLLC` is the oracle: the way-keyed sets scanned for a
tag, the empty-first/LRU victim choice and the eviction writeback as they
stood before the line index, with each range operation run as its
per-line loop.  Both caches, each over its own plain-DIMM controller, run
the same generated operation sequence; after every operation the returned
bytes, cache stats, controller stats, controller cycle, command trace and
queued writes must be equal.  The range operations' chunking (write-queue
headroom, distinct sets, src/dst set distance) is invisible only if every
chunk matches the per-line loop, so small caches, set-colliding
addresses, near-collision copies and counts past the write-queue
watermark are drawn on purpose.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.llc import LLC, CacheStats
from repro.dram.address import AddressMapping
from repro.dram.commands import CACHELINE_SIZE
from repro.dram.memory_controller import MemoryController, PlainDIMM
from repro.dram.physical_memory import PhysicalMemory
from tests.micro_oracle import PerLineRanges

MEMORY_LINES = 2048
TAGS = 6  # distinct tags drawn per set: collisions are the common case
MAX_COUNT = 64  # past the write queue's 48-entry watermark
WARM_BASE = 1024  # the warm-up stores' lines, apart from the drawn ones


class _RefLine:
    def __init__(self, tag, data, last_use):
        self.tag = tag
        self.data = bytearray(data)
        self.dirty = False
        self.last_use = last_use
        self.dma_untouched = False


class ReferenceLLC(PerLineRanges):
    """Oracle: the per-line LLC with way-keyed sets and a tag scan, its
    range operations run as their per-line loops."""

    def __init__(self, memory_controller, size, ways, dma_way_mask):
        self.mc = memory_controller
        self.ways = ways
        self.num_sets = size // (ways * CACHELINE_SIZE)
        self.cpu_way_mask = (1 << ways) - 1
        self.dma_way_mask = dma_way_mask & ((1 << ways) - 1)
        self.stats = CacheStats()
        self._sets = [dict() for _ in range(self.num_sets)]  # way -> line
        self._clock = 0

    def set_cpu_way_mask(self, mask):
        self.cpu_way_mask = mask & ((1 << self.ways) - 1)

    def _locate(self, address):
        line_address = address & ~(CACHELINE_SIZE - 1)
        set_index = (line_address // CACHELINE_SIZE) % self.num_sets
        tag = line_address // CACHELINE_SIZE // self.num_sets
        return line_address, set_index, tag

    def _find(self, set_index, tag):
        for way, line in self._sets[set_index].items():
            if line.tag == tag:
                return way, line
        return None, None

    def _victim_way(self, set_index, mask):
        candidates = [w for w in range(self.ways) if (mask >> w) & 1]
        occupied = self._sets[set_index]
        for way in candidates:
            if way not in occupied:
                return way
        return min(candidates, key=lambda w: occupied[w].last_use)

    def _evict(self, set_index, way):
        line = self._sets[set_index].pop(way)
        self.stats.evictions += 1
        if line.dma_untouched:
            self.stats.dma_leaks += 1
        if line.dirty:
            self.stats.writebacks += 1
            address = (line.tag * self.num_sets + set_index) * CACHELINE_SIZE
            self.mc.write_line(address, bytes(line.data))

    def _fill(self, set_index, tag, data, mask):
        way = self._victim_way(set_index, mask)
        if way in self._sets[set_index]:
            self._evict(set_index, way)
        line = _RefLine(tag, data, self._clock)
        self._sets[set_index][way] = line
        return line

    def load(self, address):
        self._clock += 1
        line_address, set_index, tag = self._locate(address)
        _, line = self._find(set_index, tag)
        if line is not None:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
            line = self._fill(set_index, tag, self.mc.read_line(line_address),
                              self.cpu_way_mask)
        line.last_use = self._clock
        line.dma_untouched = False
        return bytes(line.data)

    def store(self, address, data):
        self._clock += 1
        _, set_index, tag = self._locate(address)
        _, line = self._find(set_index, tag)
        if line is not None:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
            line = self._fill(set_index, tag, bytes(CACHELINE_SIZE), self.cpu_way_mask)
        line.data[:] = data
        line.dirty = True
        line.last_use = self._clock
        line.dma_untouched = False

    def flush_line(self, address):
        _, set_index, tag = self._locate(address)
        way, line = self._find(set_index, tag)
        self.stats.flushes += 1
        if line is None:
            return False
        dirty = line.dirty
        if dirty:
            self.stats.writebacks += 1
            line_address = (tag * self.num_sets + set_index) * CACHELINE_SIZE
            self.mc.write_line_now(line_address, bytes(line.data))
        del self._sets[set_index][way]
        return dirty

    def dma_write(self, address, data):
        self._clock += 1
        _, set_index, tag = self._locate(address)
        _, line = self._find(set_index, tag)
        if line is None:
            line = self._fill(set_index, tag, data, self.dma_way_mask)
            self.stats.dma_fills += 1
            line.dma_untouched = True
        else:
            line.data[:] = data
            line.last_use = self._clock
        line.dirty = True

    def dma_read(self, address):
        self._clock += 1
        line_address, set_index, tag = self._locate(address)
        _, line = self._find(set_index, tag)
        if line is not None:
            self.stats.hits += 1
            line.last_use = self._clock
            return bytes(line.data)
        self.stats.misses += 1
        return self.mc.read_line(line_address)


def _system(cache, ways, num_sets, dma_way_mask):
    # 16 lines per DRAM row, so range reads and drains cross rows.
    mapping = AddressMapping(rows=1 << 8, columns_per_row=16)
    memory = PhysicalMemory(MEMORY_LINES * CACHELINE_SIZE)
    memory.write(0, b"".join(bytes([n & 0xFF, n >> 8]) * 32
                             for n in range(MEMORY_LINES)))
    mc = MemoryController(mapping, {0: PlainDIMM(memory)}, trace=True)
    size = num_sets * ways * CACHELINE_SIZE
    return cache(mc, size=size, ways=ways, dma_way_mask=dma_way_mask), mc, memory


def _lines(fill: int, count: int) -> bytes:
    return b"".join(bytes([(fill + m) & 0xFF]) * CACHELINE_SIZE for m in range(count))


@st.composite
def scenarios(draw):
    ways = draw(st.integers(1, 4))
    num_sets = draw(st.integers(4, 16))
    full = (1 << ways) - 1
    dma_way_mask = draw(st.integers(1, full))
    line = st.integers(0, TAGS * num_sets - 1)
    offset = st.integers(0, CACHELINE_SIZE - 1)
    count = st.integers(1, MAX_COUNT)
    fill = st.integers(0, 255)
    # dst - src: overlapping, or 0, 1 or num_sets - 1 sets apart.
    set_gap = st.sampled_from((0, 1, num_sets - 1))
    delta = st.one_of(
        st.integers(-3, 3),
        st.builds(lambda k, gap: k * num_sets + gap, st.integers(-2, 2), set_gap),
    )
    op = st.one_of(
        st.tuples(st.just("load"), line, offset),
        st.tuples(st.just("store"), line, fill),
        st.tuples(st.just("load_range"), line, count),
        st.tuples(st.just("store_range"), line, count, fill),
        st.tuples(st.just("copy_range"), line, delta, count),
        st.tuples(st.just("flush_line"), line, offset),
        st.tuples(st.just("flush_range"), line, offset,
                  st.integers(0, MAX_COUNT * CACHELINE_SIZE)),
        st.tuples(st.just("dma_write"), line, fill),
        st.tuples(st.just("dma_read"), line, offset),
        st.tuples(st.just("set_cpu_way_mask"), st.integers(0, (full << 1) | 1)),
    )
    # Warm-up stores leave the cache dirty and the write queue at any
    # depth, so chunks start near the watermark as well as far from it.
    warm = draw(st.integers(0, 160))
    ops = draw(st.lists(op, min_size=1, max_size=40))
    return ways, num_sets, dma_way_mask, warm, ops


def _apply(cache, op):
    kind, *args = op
    if kind == "load":
        return cache.load((args[0] << 6) + args[1])
    if kind == "store":
        return cache.store(args[0] << 6, _lines(args[1], 1))
    if kind == "load_range":
        return cache.load_range(args[0] << 6, args[1])
    if kind == "store_range":
        return cache.store_range(args[0] << 6, _lines(args[2], args[1]))
    if kind == "copy_range":
        src, delta, count = args
        return cache.copy_range(src << 6, max(src + delta, 0) << 6, count)
    if kind in ("flush_line", "dma_read"):
        return getattr(cache, kind)((args[0] << 6) + args[1])
    if kind == "flush_range":
        return cache.flush_range((args[0] << 6) + args[1], args[2])
    if kind == "dma_write":
        return cache.dma_write(args[0] << 6, _lines(args[1], 1))
    return cache.set_cpu_way_mask(args[0])


def _observed(cache, mc):
    return (cache.stats, mc.stats, mc.cycle, list(mc.trace),
            list(mc._write_queue.items()))


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_line_index_matches_per_line_reference(scenario):
    ways, num_sets, dma_way_mask, warm, ops = scenario
    llc, mc, memory = _system(LLC, ways, num_sets, dma_way_mask)
    ref, ref_mc, ref_memory = _system(ReferenceLLC, ways, num_sets, dma_way_mask)
    for op in [("store_range", WARM_BASE, warm, 0)] + ops:
        if op[0] == "set_cpu_way_mask" and not op[1] & ((1 << ways) - 1):
            with pytest.raises(ValueError):
                llc.set_cpu_way_mask(op[1])
            assert llc.cpu_way_mask == ref.cpu_way_mask
            continue
        assert _apply(llc, op) == _apply(ref, op), op
        assert _observed(llc, mc) == _observed(ref, ref_mc), op
    # Whatever stayed cached reaches memory identically.
    span = MEMORY_LINES * CACHELINE_SIZE
    assert llc.flush_range(0, span) == ref.flush_range(0, span)
    mc.fence()
    ref_mc.fence()
    assert _observed(llc, mc) == _observed(ref, ref_mc)
    assert memory.read(0, span) == ref_memory.read(0, span)
