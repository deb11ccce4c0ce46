"""Scratchpad: the buffer device's staging SRAM (Sec. IV-B).

The DSA cannot write DRAM directly — the host memory controller owns the
DRAM devices — so results stage here until self-recycle (an LLC writeback of
the destination line arrives as a wrCAS and is *replaced* with the staged
data) or force-recycle (software explicitly rewrites pending lines).

Line lifecycle within an allocated page::

    NOT_COMPUTED --(DSA writes line)--> VALID --(wrCAS replacement)--> RECYCLED

A page whose 64 lines are all RECYCLED is freed automatically.  Pages with
VALID lines and no recent traffic are what the pending list (read by
Force-Recycle, Algorithm 1) reports.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.dram.commands import CACHELINE_SIZE, LINES_PER_PAGE, PAGE_SIZE


class LineState(enum.Enum):
    """Lifecycle of one 64-byte line within an allocated page."""

    NOT_COMPUTED = 0
    VALID = 1
    RECYCLED = 2


@dataclass
class ScratchpadPage:
    """One 4 KB allocation staging results for one destination page."""

    dbuf_page: int
    data: bytearray = field(default_factory=lambda: bytearray(PAGE_SIZE))
    states: list = field(default_factory=lambda: [LineState.NOT_COMPUTED] * LINES_PER_PAGE)
    # DRAM cycle at which each VALID line's computation completes; a CAS
    # arriving earlier hits the "unlikely" S7/S13 arbiter states.
    ready_cycles: list = field(default_factory=lambda: [None] * LINES_PER_PAGE)
    # Maintained by the Scratchpad state-transition methods so the hot
    # all-recycled check is O(1) instead of scanning 64 states per wrCAS.
    recycled_count: int = 0

    def all_recycled(self) -> bool:
        """True when every line has been retired to DRAM (page freeable)."""
        return self.recycled_count == len(self.states)


class ScratchpadFullError(Exception):
    """No free pages: CompCpy must Force-Recycle (rare by design)."""


class Scratchpad:
    """Page-granular allocator over a fixed SRAM budget (default 8 MB)."""

    def __init__(self, total_pages: int = 2048):
        self.total_pages = total_pages
        self._pages = {}  # scratchpad page index -> ScratchpadPage
        self._free_indices = list(range(total_pages - 1, -1, -1))
        self.fault_plan = None  # optional FaultPlan probing "scratchpad.exhaust"
        # Counters for Fig. 10 and the force-recycle claims.
        self.allocations = 0
        self.self_recycled_lines = 0
        self.force_recycled_lines = 0
        self.pages_freed = 0
        self.peak_pages = 0

    # -- allocation -----------------------------------------------------------

    @property
    def free_pages(self) -> int:
        return len(self._free_indices)

    @property
    def used_pages(self) -> int:
        return self.total_pages - self.free_pages

    @property
    def used_bytes(self) -> int:
        return self.used_pages * PAGE_SIZE

    def allocate(self, dbuf_page: int) -> int:
        """Reserve a page for destination page `dbuf_page`; returns its index."""
        if self.fault_plan is not None and self.fault_plan.fires("scratchpad.exhaust"):
            # Injected exhaustion: exercises the Algorithm 1 force-recycle
            # recovery without needing to genuinely fill 2048 pages.
            raise ScratchpadFullError(
                "scratchpad exhausted (injected): force-recycle required")
        if not self._free_indices:
            raise ScratchpadFullError("scratchpad exhausted: force-recycle required")
        index = self._free_indices.pop()
        self._pages[index] = ScratchpadPage(dbuf_page=dbuf_page)
        self.allocations += 1
        self.peak_pages = max(self.peak_pages, self.used_pages)
        return index

    def free(self, index: int) -> None:
        """Return a page to the free pool."""
        page = self._pages.pop(index, None)
        if page is None:
            raise KeyError("scratchpad page %d not allocated" % index)
        self._free_indices.append(index)
        self.pages_freed += 1

    def page(self, index: int) -> ScratchpadPage:
        """The allocated page record at `index`."""
        return self._pages[index]

    # -- DSA side ---------------------------------------------------------------

    def write_line_run(self, index: int, line: int, data: bytes, count: int) -> None:
        """DSA deposits `count` consecutive computed lines and marks them
        VALID (a single line is a run of one)."""
        if len(data) != count * CACHELINE_SIZE:
            raise ValueError("scratchpad run write must be %d bytes" % (count * CACHELINE_SIZE))
        page = self._pages[index]
        offset = line * CACHELINE_SIZE
        page.data[offset : offset + len(data)] = data
        states = page.states
        page.recycled_count -= states[line : line + count].count(LineState.RECYCLED)
        states[line : line + count] = [LineState.VALID] * count

    def write_bytes(self, index: int, offset: int, data: bytes) -> None:
        """DSA deposits an arbitrary byte range without changing line states
        (used for tags/length prefixes finalised at record completion)."""
        page = self._pages[index]
        if offset + len(data) > PAGE_SIZE:
            raise ValueError("scratchpad byte write overruns the page")
        page.data[offset : offset + len(data)] = data

    def mark_foreign_recycled(self, index: int, line: int) -> None:
        """Mark a never-computed line RECYCLED (host overwrote it first)."""
        page = self._pages[index]
        if page.states[line] is not LineState.RECYCLED:
            page.recycled_count += 1
        page.states[line] = LineState.RECYCLED

    def set_ready_cycle(self, index: int, line: int, cycle: int) -> None:
        """Record when the DSA finishes computing this line."""
        self._pages[index].ready_cycles[line] = cycle

    def is_ready(self, index: int, line: int, now_cycle: int) -> bool:
        """True when the line is VALID and its modelled DSA latency elapsed."""
        page = self._pages[index]
        if page.states[line] is not LineState.VALID:
            return False
        ready = page.ready_cycles[line]
        return ready is None or now_cycle >= ready

    # -- arbiter side --------------------------------------------------------------

    def line_state(self, index: int, line: int) -> LineState:
        """Current lifecycle state of one line."""
        return self._pages[index].states[line]

    def recycle_line_run(self, index: int, line: int, count: int,
                         forced: bool = False) -> tuple:
        """Consume `count` consecutive VALID lines for writeback replacement:
        a self-recycle (S8/S9), or with `forced` a SPAD_WB retirement.

        Returns (data, page_now_free).  The caller writes `data` to DRAM in
        place of the incoming wrCAS bursts and frees the page when
        signalled; the page can only become free on the run's last line
        (every earlier run line is still VALID when its predecessors
        recycle), so one trailing :meth:`ScratchpadPage.all_recycled` check
        suffices.
        """
        page = self._pages[index]
        states = page.states
        if states[line : line + count].count(LineState.VALID) != count:
            raise RuntimeError("recycling non-VALID scratchpad line run")
        offset = line * CACHELINE_SIZE
        data = bytes(page.data[offset : offset + count * CACHELINE_SIZE])
        states[line : line + count] = [LineState.RECYCLED] * count
        page.recycled_count += count
        if forced:
            self.force_recycled_lines += count
        else:
            self.self_recycled_lines += count
        return data, page.all_recycled()

    # -- pending list (MMIO-readable, Algorithm 1) -------------------------------------

    def pending_pages(self) -> list:
        """Destination page numbers with VALID (unrecycled) lines."""
        return [
            page.dbuf_page
            for page in self._pages.values()
            if any(s is LineState.VALID for s in page.states)
        ]

    def pending_lines(self, index: int) -> list:
        """Line indices still VALID in a scratchpad page."""
        return [
            line
            for line, state in enumerate(self._pages[index].states)
            if state is LineState.VALID
        ]
