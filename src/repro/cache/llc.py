"""Functional set-associative last-level cache with CAT and DDIO.

The cache sits between the CPU model and a
:class:`repro.dram.memory_controller.MemoryController`; misses fetch lines
from memory and dirty evictions queue writebacks.  Those writebacks are
exactly the wrCAS stream that self-recycles SmartDIMM's scratchpad.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.dram.commands import CACHELINE_SIZE


class AccessClass(enum.Enum):
    """Who is allocating: CPU loads/stores or device DMA (DDIO)."""

    CPU = "cpu"
    DMA = "dma"


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    evictions: int = 0
    flushes: int = 0
    dma_fills: int = 0
    dma_leaks: int = 0  # DMA-filled lines evicted before any CPU touch

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


@dataclass
class _Line:
    tag: int
    data: bytearray
    dirty: bool = False
    last_use: int = 0
    dma_untouched: bool = False  # filled by DMA, not yet read by the CPU


class LLC:
    """Set-associative, write-back, write-allocate LLC.

    Parameters
    ----------
    size:
        Capacity in bytes.
    ways:
        Associativity.
    cpu_way_mask / dma_way_mask:
        CAT-style bitmasks of which ways each access class may *allocate*
        into (hits anywhere still hit).  The default DDIO configuration
        confines DMA fills to 2 ways, as on Xeon parts.
    """

    def __init__(
        self,
        memory_controller,
        size: int = 2 * 1024 * 1024,
        ways: int = 16,
        cpu_way_mask: int = None,
        dma_way_mask: int = 0b11,
    ):
        if size % (ways * CACHELINE_SIZE):
            raise ValueError("cache size must be a multiple of ways * 64B")
        self.mc = memory_controller
        self.ways = ways
        self.num_sets = size // (ways * CACHELINE_SIZE)
        self.cpu_way_mask = cpu_way_mask if cpu_way_mask is not None else (1 << ways) - 1
        self.dma_way_mask = dma_way_mask & ((1 << ways) - 1)
        self.stats = CacheStats()
        self._sets = [dict() for _ in range(self.num_sets)]  # way -> _Line
        self._clock = 0
        self._mask_ways = {}  # way-mask -> tuple of allowed ways, built lazily

    # -- configuration ----------------------------------------------------------

    def set_cpu_way_mask(self, mask: int) -> None:
        """Apply a CAT mask; lines in now-forbidden ways stay until evicted."""
        self.cpu_way_mask = mask & ((1 << self.ways) - 1)
        if self.cpu_way_mask == 0:
            raise ValueError("CPU way mask must allow at least one way")

    @property
    def effective_cpu_size(self) -> int:
        return self.num_sets * CACHELINE_SIZE * bin(self.cpu_way_mask).count("1")

    # -- lookup helpers ----------------------------------------------------------

    def _locate(self, address: int) -> tuple:
        line_address = address & ~(CACHELINE_SIZE - 1)
        set_index = (line_address // CACHELINE_SIZE) % self.num_sets
        tag = line_address // CACHELINE_SIZE // self.num_sets
        return line_address, set_index, tag

    def _find(self, set_index: int, tag: int):
        for way, line in self._sets[set_index].items():
            if line.tag == tag:
                return way, line
        return None, None

    def _allowed_ways(self, access: AccessClass) -> int:
        return self.cpu_way_mask if access is AccessClass.CPU else self.dma_way_mask

    def _candidates(self, mask: int) -> tuple:
        """Allowed ways for `mask`, cached (allocation order is way order)."""
        candidates = self._mask_ways.get(mask)
        if candidates is None:
            candidates = tuple(w for w in range(self.ways) if (mask >> w) & 1)
            self._mask_ways[mask] = candidates
        return candidates

    def _cpu_candidates(self) -> tuple:
        """Allowed ways under the current CPU CAT mask."""
        return self._candidates(self.cpu_way_mask)

    def _victim_way(self, set_index: int, mask: int) -> int:
        """Pick an allowed way: empty first, else LRU."""
        candidates = self._candidates(mask)
        occupied = self._sets[set_index]
        for way in candidates:
            if way not in occupied:
                return way
        return min(candidates, key=lambda w: occupied[w].last_use)

    def _evict(self, set_index: int, way: int) -> None:
        line = self._sets[set_index].pop(way)
        self.stats.evictions += 1
        if line.dma_untouched:
            self.stats.dma_leaks += 1
        if line.dirty:
            self.stats.writebacks += 1
            address = (line.tag * self.num_sets + set_index) * CACHELINE_SIZE
            self.mc.write_line(address, bytes(line.data))

    def _fill(self, set_index: int, tag: int, data: bytes, access: AccessClass) -> _Line:
        way = self._victim_way(set_index, self._allowed_ways(access))
        if way in self._sets[set_index]:
            self._evict(set_index, way)
        line = _Line(tag=tag, data=bytearray(data), last_use=self._clock)
        self._sets[set_index][way] = line
        return line

    # -- CPU interface -------------------------------------------------------------

    def load(self, address: int) -> bytes:
        """CPU load of one cacheline."""
        self._clock += 1
        line_address, set_index, tag = self._locate(address)
        _, line = self._find(set_index, tag)
        if line is not None:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
            line = self._fill(set_index, tag, self.mc.read_line(line_address), AccessClass.CPU)
        line.last_use = self._clock
        line.dma_untouched = False
        return bytes(line.data)

    def store(self, address: int, data: bytes) -> None:
        """CPU store of one full cacheline (write-allocate)."""
        if len(data) != CACHELINE_SIZE:
            raise ValueError("store must be one %d-byte line" % CACHELINE_SIZE)
        self._clock += 1
        line_address, set_index, tag = self._locate(address)
        _, line = self._find(set_index, tag)
        if line is not None:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
            # Full-line store still allocates; we skip the ownership read
            # because the whole line is overwritten (like an RFO-eliding
            # full-line write).
            line = self._fill(set_index, tag, bytes(CACHELINE_SIZE), AccessClass.CPU)
        line.data[:] = data
        line.dirty = True
        line.last_use = self._clock
        line.dma_untouched = False

    def load_range(self, address: int, count: int) -> bytes:
        """CPU load of `count` consecutive lines (== a load loop).

        Runs of consecutive misses are fetched with one
        :meth:`MemoryController.read_lines` call.  Chunks are capped so a
        write-queue drain can never fire mid-chunk (each fill queues at
        most one eviction writeback), and chunk lines occupy distinct sets,
        so prefetching cannot disturb any line the chunk still needs —
        the command stream matches the per-line loop exactly.
        """
        mc = self.mc
        # Masking once up front is identical to load()'s per-line masking.
        address &= ~(CACHELINE_SIZE - 1)
        sets = self._sets
        num_sets = self.num_sets
        stats = self.stats
        candidates = self._cpu_candidates()
        parts = []
        i = 0
        while i < count:
            headroom = mc.WRITE_QUEUE_HIGH_WATERMARK - 1 - len(mc._write_queue)
            if headroom < 1:
                parts.append(self.load(address + (i << 6)))
                i += 1
                continue
            chunk = min(count - i, headroom, num_sets)
            base = address + (i << 6)
            # Probe the chunk for miss runs (probing mutates nothing).
            missing = []
            for m in range(chunk):
                line_number = (base >> 6) + m
                tag = line_number // num_sets
                for cand in sets[line_number % num_sets].values():
                    if cand.tag == tag:
                        break
                else:
                    missing.append(m)
            fetched = {}
            run_start = 0
            while run_start < len(missing):
                run_end = run_start + 1
                while (
                    run_end < len(missing)
                    and missing[run_end] == missing[run_end - 1] + 1
                ):
                    run_end += 1
                first = missing[run_start]
                data = mc.read_lines(base + (first << 6), run_end - run_start)
                for j in range(run_start, run_end):
                    offset = (j - run_start) * CACHELINE_SIZE
                    fetched[missing[j]] = data[offset : offset + CACHELINE_SIZE]
                run_start = run_end
            clock = self._clock
            for m in range(chunk):
                clock += 1
                line_number = (base >> 6) + m
                tag = line_number // num_sets
                set_index = line_number % num_sets
                occupied = sets[set_index]
                line = None
                for cand in occupied.values():
                    if cand.tag == tag:
                        line = cand
                        break
                if line is not None:
                    stats.hits += 1
                else:
                    # Inlined _fill (CPU mask): same empty-first/LRU victim
                    # choice and eviction writeback, minus per-miss calls.
                    stats.misses += 1
                    for way in candidates:
                        if way not in occupied:
                            break
                    else:
                        way = min(candidates, key=lambda w: occupied[w].last_use)
                        old = occupied.pop(way)
                        stats.evictions += 1
                        if old.dma_untouched:
                            stats.dma_leaks += 1
                        if old.dirty:
                            stats.writebacks += 1
                            mc.write_line(
                                (old.tag * num_sets + set_index) * CACHELINE_SIZE,
                                bytes(old.data),
                            )
                    line = _Line(tag=tag, data=bytearray(fetched[m]), last_use=clock)
                    occupied[way] = line
                line.last_use = clock
                line.dma_untouched = False
                parts.append(bytes(line.data))
            self._clock = clock
            i += chunk
        return b"".join(parts)

    def store_range(self, address: int, data: bytes) -> None:
        """CPU store of consecutive full lines (== a store loop)."""
        if len(data) % CACHELINE_SIZE:
            raise ValueError(
                "range store must be whole %d-byte lines" % CACHELINE_SIZE
            )
        address &= ~(CACHELINE_SIZE - 1)  # identical to store()'s masking
        mc = self.mc
        sets = self._sets
        num_sets = self.num_sets
        stats = self.stats
        candidates = self._cpu_candidates()
        clock = self._clock
        first_line = address >> 6
        for m in range(len(data) // CACHELINE_SIZE):
            clock += 1
            line_number = first_line + m
            tag = line_number // num_sets
            set_index = line_number % num_sets
            occupied = sets[set_index]
            line = None
            for cand in occupied.values():
                if cand.tag == tag:
                    line = cand
                    break
            if line is not None:
                stats.hits += 1
            else:
                # Inlined _fill with a zero line (full-line store elides the
                # ownership read); same victim choice and eviction order.
                stats.misses += 1
                for way in candidates:
                    if way not in occupied:
                        break
                else:
                    way = min(candidates, key=lambda w: occupied[w].last_use)
                    old = occupied.pop(way)
                    stats.evictions += 1
                    if old.dma_untouched:
                        stats.dma_leaks += 1
                    if old.dirty:
                        stats.writebacks += 1
                        mc.write_line(
                            (old.tag * num_sets + set_index) * CACHELINE_SIZE,
                            bytes(old.data),
                        )
                line = _Line(tag=tag, data=bytearray(CACHELINE_SIZE), last_use=clock)
                occupied[way] = line
            line.data[:] = data[m * CACHELINE_SIZE : (m + 1) * CACHELINE_SIZE]
            line.dirty = True
            line.last_use = clock
            line.dma_untouched = False
        self._clock = clock

    def copy_range(self, src: int, dst: int, count: int) -> None:
        """Copy `count` lines through the cache (== store(dst, load(src))).

        Source miss runs are prefetched in bulk; fills and stores then
        replay per line in reference order, so eviction-writeback queue
        order is preserved.  Chunks are sized so no drain fires mid-chunk,
        and prefetch is skipped when the chunk's src and dst set ranges
        overlap (a dst fill could then evict a still-needed src line).
        """
        mc = self.mc
        num_sets = self.num_sets
        sets = self._sets
        stats = self.stats
        candidates = self._cpu_candidates()
        # Masking once up front is identical to load()/store() masking.
        src &= ~(CACHELINE_SIZE - 1)
        dst &= ~(CACHELINE_SIZE - 1)
        i = 0
        while i < count:
            headroom = (mc.WRITE_QUEUE_HIGH_WATERMARK - 1 - len(mc._write_queue)) // 2
            src_base = src + (i << 6)
            dst_base = dst + (i << 6)
            if headroom < 1:
                self.store(dst_base, self.load(src_base))
                i += 1
                continue
            chunk = min(count - i, headroom, num_sets)
            src_set = (src_base >> 6) % num_sets
            dst_set = (dst_base >> 6) % num_sets
            gap = (dst_set - src_set) % num_sets
            if gap < chunk or (num_sets - gap) < chunk:
                # Set ranges overlap: run the reference per-line pairing.
                for m in range(chunk):
                    self.store(dst_base + (m << 6), self.load(src_base + (m << 6)))
                i += chunk
                continue
            src_line = src_base >> 6
            dst_line = dst_base >> 6
            missing = []
            for m in range(chunk):
                tag = (src_line + m) // num_sets
                for cand in sets[(src_line + m) % num_sets].values():
                    if cand.tag == tag:
                        break
                else:
                    missing.append(m)
            fetched = {}
            run_start = 0
            while run_start < len(missing):
                run_end = run_start + 1
                while (
                    run_end < len(missing)
                    and missing[run_end] == missing[run_end - 1] + 1
                ):
                    run_end += 1
                first = missing[run_start]
                data = mc.read_lines(src_base + (first << 6), run_end - run_start)
                for j in range(run_start, run_end):
                    offset = (j - run_start) * CACHELINE_SIZE
                    fetched[missing[j]] = data[offset : offset + CACHELINE_SIZE]
                run_start = run_end
            clock = self._clock
            for m in range(chunk):
                # load half
                clock += 1
                tag = (src_line + m) // num_sets
                set_index = (src_line + m) % num_sets
                occupied = sets[set_index]
                line = None
                for cand in occupied.values():
                    if cand.tag == tag:
                        line = cand
                        break
                if line is not None:
                    stats.hits += 1
                else:
                    # Inlined _fill; see load_range.
                    stats.misses += 1
                    for way in candidates:
                        if way not in occupied:
                            break
                    else:
                        way = min(candidates, key=lambda w: occupied[w].last_use)
                        old = occupied.pop(way)
                        stats.evictions += 1
                        if old.dma_untouched:
                            stats.dma_leaks += 1
                        if old.dirty:
                            stats.writebacks += 1
                            mc.write_line(
                                (old.tag * num_sets + set_index) * CACHELINE_SIZE,
                                bytes(old.data),
                            )
                    line = _Line(tag=tag, data=bytearray(fetched[m]), last_use=clock)
                    occupied[way] = line
                line.last_use = clock
                line.dma_untouched = False
                payload = bytes(line.data)
                # store half
                clock += 1
                tag = (dst_line + m) // num_sets
                set_index = (dst_line + m) % num_sets
                occupied = sets[set_index]
                line = None
                for cand in occupied.values():
                    if cand.tag == tag:
                        line = cand
                        break
                if line is not None:
                    stats.hits += 1
                else:
                    # Inlined _fill with a zero line; see store_range.
                    stats.misses += 1
                    for way in candidates:
                        if way not in occupied:
                            break
                    else:
                        way = min(candidates, key=lambda w: occupied[w].last_use)
                        old = occupied.pop(way)
                        stats.evictions += 1
                        if old.dma_untouched:
                            stats.dma_leaks += 1
                        if old.dirty:
                            stats.writebacks += 1
                            mc.write_line(
                                (old.tag * num_sets + set_index) * CACHELINE_SIZE,
                                bytes(old.data),
                            )
                    line = _Line(
                        tag=tag, data=bytearray(CACHELINE_SIZE), last_use=clock
                    )
                    occupied[way] = line
                line.data[:] = payload
                line.dirty = True
                line.last_use = clock
                line.dma_untouched = False
            self._clock = clock
            i += chunk

    def flush_line(self, address: int) -> bool:
        """clflush: write back if dirty and invalidate.  Returns True when a
        writeback actually travelled to memory (used by the flush cost model:
        flushing data already in DRAM is ~50 % faster, Sec. IV-A)."""
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

    def flush_range(self, address: int, length: int) -> int:
        """Flush every line in [address, address+length); returns dirty count.

        Dirty resident lines at consecutive addresses are written back as
        one :meth:`MemoryController.write_lines_now` run.  Queue pops emit
        no commands and writeback issues never read the queue, so
        pop-all-then-issue-run is command- and stats-identical to the
        per-line :meth:`flush_range_reference` loop.
        """
        start = address & ~(CACHELINE_SIZE - 1)
        dirty = 0
        run_address = None
        run_datas = []
        for line_address in range(start, address + length, CACHELINE_SIZE):
            _, set_index, tag = self._locate(line_address)
            way, line = self._find(set_index, tag)
            self.stats.flushes += 1
            if line is None or not line.dirty:
                if run_datas:
                    self.mc.write_lines_now(run_address, run_datas)
                    run_address, run_datas = None, []
                if line is not None:
                    del self._sets[set_index][way]
                continue
            self.stats.writebacks += 1
            dirty += 1
            if not run_datas:
                run_address = line_address
            run_datas.append(bytes(line.data))
            del self._sets[set_index][way]
        if run_datas:
            self.mc.write_lines_now(run_address, run_datas)
        return dirty

    def flush_range_reference(self, address: int, length: int) -> int:
        """Reference flush: the original per-line clflush loop.

        Runs under ``SessionConfig(fast_path=False)``, the oracle side of
        ``tests/core/test_batch_fast_path.py``."""
        start = address & ~(CACHELINE_SIZE - 1)
        dirty = 0
        for line_address in range(start, address + length, CACHELINE_SIZE):
            if self.flush_line(line_address):
                dirty += 1
        return dirty

    def contains(self, address: int) -> bool:
        """Whether the line holding `address` is resident."""
        _, set_index, tag = self._locate(address)
        return self._find(set_index, tag)[1] is not None

    # -- device (DDIO) interface -----------------------------------------------------

    def dma_write(self, address: int, data: bytes) -> None:
        """Device writes a line toward the CPU; DDIO steers it into the
        restricted DMA ways instead of DRAM."""
        if len(data) != CACHELINE_SIZE:
            raise ValueError("DMA write must be one %d-byte line" % CACHELINE_SIZE)
        self._clock += 1
        _, set_index, tag = self._locate(address)
        _, line = self._find(set_index, tag)
        if line is None:
            line = self._fill(set_index, tag, data, AccessClass.DMA)
            self.stats.dma_fills += 1
            line.dma_untouched = True
        else:
            line.data[:] = data
            line.last_use = self._clock
        line.dirty = True

    def dma_read(self, address: int) -> bytes:
        """Device reads a line (TX DMA); hits are served from cache."""
        self._clock += 1
        line_address, set_index, tag = self._locate(address)
        _, line = self._find(set_index, tag)
        if line is not None:
            self.stats.hits += 1
            line.last_use = self._clock
            return bytes(line.data)
        self.stats.misses += 1
        return self.mc.read_line(line_address)

    # -- maintenance ---------------------------------------------------------------

    def writeback_all(self) -> int:
        """Flush the entire cache (test helper); returns lines written back."""
        count = 0
        for set_index in range(self.num_sets):
            for way in list(self._sets[set_index]):
                line = self._sets[set_index][way]
                if line.dirty:
                    count += 1
                address = (line.tag * self.num_sets + set_index) * CACHELINE_SIZE
                if line.dirty:
                    self.mc.write_line(address, bytes(line.data))
                del self._sets[set_index][way]
        self.mc.fence()
        return count

    @property
    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)
