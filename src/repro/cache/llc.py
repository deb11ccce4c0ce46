"""Functional set-associative last-level cache with CAT and DDIO.

The cache sits between the CPU model and a
:class:`repro.dram.memory_controller.MemoryController`; misses fetch lines
from memory and dirty evictions queue writebacks.  Those writebacks are
exactly the wrCAS stream that self-recycles SmartDIMM's scratchpad.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.commands import CACHELINE_SIZE


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


@dataclass(slots=True)
class _Line:
    number: int  # line number: address >> 6
    way: int
    data: bytearray
    dirty: bool = False
    last_use: int = 0
    dma_untouched: bool = False  # filled by DMA, not yet read by the CPU


class LLC:
    """Set-associative, write-back, write-allocate LLC.

    Resident lines are indexed by line number (``address >> 6``), so a
    lookup is one dict probe; each set also keeps a way -> line map, which
    victim choice reads.  Every CPU access, single-line or range, runs
    through :meth:`_access`, and every allocation through :meth:`_fill`.

    Parameters
    ----------
    size:
        Capacity in bytes.
    ways:
        Associativity.
    cpu_way_mask / dma_way_mask:
        CAT-style bitmasks of which ways each access class may *allocate*
        into (hits anywhere still hit).  The default DDIO configuration
        confines DMA fills to 2 ways, as on Xeon parts.  A mask must
        select at least one of the cache's ways.
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
        self.cpu_way_mask = self._checked_mask(
            (1 << ways) - 1 if cpu_way_mask is None else cpu_way_mask
        )
        self.dma_way_mask = self._checked_mask(dma_way_mask)
        self.stats = CacheStats()
        self._lines = {}  # line number -> _Line
        self._sets = [dict() for _ in range(self.num_sets)]  # way -> _Line
        self._clock = 0
        self._mask_ways = {}  # way-mask -> tuple of allowed ways, built lazily

    # -- configuration ----------------------------------------------------------

    def _checked_mask(self, mask: int) -> int:
        """`mask` cut to the cache's ways; it must select at least one."""
        allowed = mask & ((1 << self.ways) - 1)
        if not allowed:
            raise ValueError(
                "way mask 0x%x selects none of the %d ways" % (mask, self.ways)
            )
        return allowed

    def set_cpu_way_mask(self, mask: int) -> None:
        """Apply a CAT mask; lines in now-forbidden ways stay until evicted."""
        self.cpu_way_mask = self._checked_mask(mask)

    @property
    def effective_cpu_size(self) -> int:
        return self.num_sets * CACHELINE_SIZE * bin(self.cpu_way_mask).count("1")

    # -- the one allocation and access path ---------------------------------------

    def _candidates(self, mask: int) -> tuple:
        """The ways `mask` allows, in way order (built once per mask)."""
        candidates = self._mask_ways.get(mask)
        if candidates is None:
            candidates = tuple(w for w in range(self.ways) if (mask >> w) & 1)
            self._mask_ways[mask] = candidates
        return candidates

    def _fill(self, number: int, data, mask: int) -> _Line:
        """Allocate line `number` holding `data` in a way `mask` allows:
        an empty way first (in way order), else the least recently used
        one, whose line is evicted and written back if dirty."""
        ways = self._sets[number % self.num_sets]
        candidates = self._mask_ways.get(mask) or self._candidates(mask)
        for way in candidates:
            if way not in ways:
                break
        else:
            way = min(candidates, key=lambda w: ways[w].last_use)
            old = ways.pop(way)
            del self._lines[old.number]
            stats = self.stats
            stats.evictions += 1
            if old.dma_untouched:
                stats.dma_leaks += 1
            if old.dirty:
                stats.writebacks += 1
                self.mc.write_line(old.number << 6, bytes(old.data))
        line = _Line(number, way, bytearray(data), last_use=self._clock)
        ways[way] = line
        self._lines[number] = line
        return line

    def _access(self, number: int, fill) -> _Line:
        """One CPU access to line `number`: count the hit or miss and
        allocate on a miss under the CPU mask.  `fill` is the line's data
        on a miss; ``None`` reads it from memory."""
        self._clock += 1
        line = self._lines.get(number)
        if line is not None:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
            if fill is None:
                fill = self.mc.read_line(number << 6)
            line = self._fill(number, fill, self.cpu_way_mask)
        line.last_use = self._clock
        line.dma_untouched = False
        return line

    def _write(self, number: int, data) -> None:
        """CPU store of one full line.  A miss still allocates, but with
        the stored data: the whole line is overwritten, so the ownership
        read is elided (like an RFO-eliding full-line write)."""
        line = self._access(number, data)
        line.data[:] = data
        line.dirty = True

    def _chunk(self, remaining: int, writes_per_line: int, distance: int) -> int:
        """Lines the next range chunk covers.  A chunk reads its missing
        lines up front (:meth:`_prefetch`), then accesses them in order,
        which matches the per-line loop if nothing it does before its last
        line's access changes that line's data or residency:

        * each line's fills queue at most `writes_per_line` writebacks, so
          with ``(chunk - 1) * writes_per_line`` within
          :meth:`MemoryController.write_headroom` no drain can fire before
          the last line's read;
        * `distance` bounds the lines so that no fill lands in the set of
          a line still to be read: the set count for a load, and for a
          copy also the set distance from src to dst, when nonzero.

        A one-line chunk reads right before its own access, which is the
        per-line path itself, so every chunk has at least one line."""
        headroom = self.mc.write_headroom() // writes_per_line + 1
        return min(remaining, headroom, distance)

    def _prefetch(self, first: int, count: int) -> tuple:
        """Read the non-resident lines among `count` from line `first`,
        one :meth:`MemoryController.read_lines` call per run of
        consecutive misses.  Returns ``(fetched, stop, error)``: line
        number -> data, and the line whose read raised `error` (``first
        + count`` and None when every read completed)."""
        lines = self._lines
        fetched = {}
        end = first + count
        number = first
        while number < end:
            if number in lines:
                number += 1
                continue
            run_end = number + 1
            while run_end < end and run_end not in lines:
                run_end += 1
            data, error = self.mc.read_lines(number << 6, run_end - number)
            for offset in range(0, len(data), CACHELINE_SIZE):
                fetched[number] = data[offset : offset + CACHELINE_SIZE]
                number += 1
            if error is not None:
                return fetched, number, error
        return fetched, end, None

    def _raise_at(self, error: Exception):
        """Charge the access whose read raised `error` as :meth:`_access`
        charges a miss before its read (one clock tick, one miss), then
        raise: the lines after it are never accessed."""
        self._clock += 1
        self.stats.misses += 1
        raise error

    # -- CPU interface -------------------------------------------------------------

    def load(self, address: int) -> bytes:
        """CPU load of one cacheline."""
        return bytes(self._access(address >> 6, None).data)

    def store(self, address: int, data: bytes) -> None:
        """CPU store of one full cacheline (write-allocate)."""
        if len(data) != CACHELINE_SIZE:
            raise ValueError("store must be one %d-byte line" % CACHELINE_SIZE)
        self._write(address >> 6, data)

    def load_range(self, address: int, count: int) -> bytes:
        """CPU load of `count` consecutive lines (== a load loop), chunked
        by :meth:`_chunk` so miss runs are fetched in bulk."""
        first = address >> 6
        parts = []
        done = 0
        while done < count:
            chunk = self._chunk(count - done, 1, self.num_sets)
            fetched, stop, error = self._prefetch(first + done, chunk)
            for number in range(first + done, stop):
                parts.append(bytes(self._access(number, fetched.get(number)).data))
            if error is not None:
                self._raise_at(error)
            done += chunk
        return b"".join(parts)

    def store_range(self, address: int, data: bytes) -> None:
        """CPU store of consecutive full lines (== a store loop)."""
        if len(data) % CACHELINE_SIZE:
            raise ValueError(
                "range store must be whole %d-byte lines" % CACHELINE_SIZE
            )
        view = memoryview(data)
        first = address >> 6
        for m in range(len(data) // CACHELINE_SIZE):
            self._write(first + m, view[m << 6 : (m + 1) << 6])

    def copy_range(self, src: int, dst: int, count: int) -> None:
        """Copy `count` lines through the cache (== store(dst, load(src))),
        chunked by :meth:`_chunk` so source miss runs are fetched in bulk."""
        src >>= 6
        dst >>= 6
        distance = (dst - src) % self.num_sets or self.num_sets
        done = 0
        while done < count:
            chunk = self._chunk(count - done, 2, distance)
            fetched, stop, error = self._prefetch(src + done, chunk)
            for m in range(done, stop - src):
                self._write(dst + m, bytes(self._access(src + m, fetched.get(src + m)).data))
            if error is not None:
                self._raise_at(error)
            done += chunk

    def copy_range_ordered(self, src: int, dst: int, count: int) -> None:
        """Copy `count` lines with a memory barrier after each, the ordered
        copy of Algorithm 2 (== ``store(dst, load(src)); mc.fence()`` per
        line).

        Each run :meth:`_fenced_run` allows is read up front as one fenced
        burst (:meth:`MemoryController.read_lines_fenced`), then accessed
        in order.  That matches the per-line loop while nothing the run's
        accesses do reaches the controller: every step ends in a fence, so
        the write queue is empty at each read, and a writeback queued
        mid-run would be drained by that line's fence, between two rdCAS.
        A line outside any run (a resident source, or a fill that might
        evict a dirty line) takes the per-line step itself.  A read that
        raises stops the copy as :meth:`copy_range` does."""
        src >>= 6
        dst >>= 6
        distance = (dst - src) % self.num_sets or self.num_sets
        m = 0
        while m < count:
            run = self._fenced_run(src + m, dst + m, count - m, distance)
            if not run:
                self._write(dst + m, bytes(self._access(src + m, None).data))
                self.mc.fence()
                m += 1
                continue
            data, error = self.mc.read_lines_fenced((src + m) << 6, run)
            view = memoryview(data)
            for offset in range(0, len(data), CACHELINE_SIZE):
                line = view[offset : offset + CACHELINE_SIZE]
                self._access(src + m, line)
                self._write(dst + m, line)
                m += 1
            if error is not None:
                self._raise_at(error)

    def _fenced_run(self, src: int, dst: int, remaining: int,
                    distance: int) -> int:
        """Lines from `src` (copied to `dst`) that one fenced burst may
        read: non-resident sources none of whose fills can evict a dirty
        line.

        As in :meth:`_chunk`, a run stays within the src -> dst set
        `distance` (the set count when src and dst share a set), so no
        fill lands in the set of a source still to be read or of a
        destination already stored, and the only lines the run can evict
        dirty are those resident before it.  A source's fill is the run's
        first into its set.  From ``num_sets - distance`` lines into the
        run on, a destination's set has taken one fill before its store,
        that of the run source whose set it is, which may even evict a
        resident destination.  So a line joins while each of its two sets
        holds a free allowed way per fill the run makes there up to it,
        or no dirty line in an allowed way.  A set with enough free ways
        costs no scan."""
        lines = self._lines
        sets = self._sets
        num_sets = self.num_sets
        mask = self.cpu_way_mask
        allowed = len(self._candidates(mask))
        limit = min(remaining, distance)
        shared = num_sets - distance
        run = 0
        while run < limit:
            if src + run in lines:
                break
            ways = sets[(src + run) % num_sets]
            if allowed - len(ways) < 1 and not self._fill_safe(ways, mask, 1):
                break
            fills = (run >= shared) + (dst + run not in lines)
            ways = sets[(dst + run) % num_sets]
            if fills and allowed - len(ways) < fills and not self._fill_safe(
                    ways, mask, fills):
                break
            run += 1
        return run

    def _fill_safe(self, ways: dict, mask: int, fills: int) -> bool:
        """Whether `fills` fills into a set (way -> line) under `mask`
        can evict no dirty line: it has that many free allowed ways, or
        no dirty line in an allowed way."""
        free = 0
        dirty = False
        for way in self._candidates(mask):
            line = ways.get(way)
            if line is None:
                free += 1
            elif line.dirty:
                dirty = True
        return free >= fills or not dirty

    def _remove(self, number: int):
        """Invalidate line `number`; returns its _Line, or None."""
        line = self._lines.pop(number, None)
        if line is not None:
            del self._sets[number % self.num_sets][line.way]
        return line

    def flush_line(self, address: int) -> bool:
        """clflush: write back if dirty and invalidate.  Returns True when a
        writeback actually travelled to memory (used by the flush cost model:
        flushing data already in DRAM is ~50 % faster, Sec. IV-A)."""
        self.stats.flushes += 1
        line = self._remove(address >> 6)
        if line is None or not line.dirty:
            return False
        self.stats.writebacks += 1
        self.mc.write_line_now(line.number << 6, bytes(line.data))
        return True

    def flush_range(self, address: int, length: int) -> int:
        """Flush every line in [address, address+length); returns dirty count.

        Dirty resident lines at consecutive addresses are written back as
        one :meth:`MemoryController.write_lines_now` run.  Queue pops emit
        no commands and writeback issues never read the queue, so
        pop-all-then-issue-run is command- and stats-identical to a
        :meth:`flush_line` loop over the range.
        """
        if length <= 0:
            return 0
        dirty = 0
        run_first = None
        run_datas = []
        for number in range(address >> 6, (address + length + 63) >> 6):
            self.stats.flushes += 1
            line = self._remove(number)
            if line is not None and line.dirty:
                self.stats.writebacks += 1
                dirty += 1
                if not run_datas:
                    run_first = number
                run_datas.append(bytes(line.data))
            elif run_datas:
                self.mc.write_lines_now(run_first << 6, run_datas)
                run_datas = []
        if run_datas:
            self.mc.write_lines_now(run_first << 6, run_datas)
        return dirty

    def contains(self, address: int) -> bool:
        """Whether the line holding `address` is resident."""
        return (address >> 6) in self._lines

    # -- device (DDIO) interface -----------------------------------------------------

    def dma_write(self, address: int, data: bytes) -> None:
        """Device writes a line toward the CPU; DDIO steers it into the
        restricted DMA ways instead of DRAM."""
        if len(data) != CACHELINE_SIZE:
            raise ValueError("DMA write must be one %d-byte line" % CACHELINE_SIZE)
        self._clock += 1
        line = self._lines.get(address >> 6)
        if line is None:
            line = self._fill(address >> 6, data, self.dma_way_mask)
            self.stats.dma_fills += 1
            line.dma_untouched = True
        else:
            line.data[:] = data
            line.last_use = self._clock
        line.dirty = True

    def dma_read(self, address: int) -> bytes:
        """Device reads a line (TX DMA); hits are served from cache."""
        self._clock += 1
        line = self._lines.get(address >> 6)
        if line is not None:
            self.stats.hits += 1
            line.last_use = self._clock
            return bytes(line.data)
        self.stats.misses += 1
        return self.mc.read_line(address & ~(CACHELINE_SIZE - 1))

    # -- maintenance ---------------------------------------------------------------

    def writeback_all(self) -> int:
        """Flush the entire cache (test helper); returns lines written back."""
        count = 0
        for ways in self._sets:
            for line in ways.values():
                if line.dirty:
                    count += 1
                    self.mc.write_line(line.number << 6, bytes(line.data))
            ways.clear()
        self._lines.clear()
        self.mc.fence()
        return count

    @property
    def resident_lines(self) -> int:
        return len(self._lines)
