"""Direct offload: the optimised model sketched in Sec. IV-E.

The baseline CompCpy model pays for compatibility: the payload travels to
the memory controller (and through the cache hierarchy) even though only
the DSA needs it, and the results come home via self-recycling writebacks.
The paper's discussion notes that *given the opportunity to modify the
memory controller and introduce new DDR commands*, an optimised model
"could eliminate cache pollution entirely":

* a **compute read** (``CMP_RDCAS``) directs DRAM data solely to the DSA —
  no burst crosses the data bus, no cacheline is allocated;
* the controller keeps the offloaded destination addresses in a hardware
  table (akin to extended directories) with a timer, eventually issuing a
  **scratchpad writeback** (``SPAD_WB``) that retires each staged line to
  DRAM inside the buffer device.

:class:`DirectOffloadEngine` implements that model end to end on the
extended controller/device.  The ablation benchmark
``test_ablation_direct_offload.py`` quantifies the benefit: the transform
itself moves **zero** bytes over the DDR bus and touches **zero** LLC
lines, versus CompCpy's three full traversals.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.commands import CACHELINE_SIZE
from repro.core.compcpy import check_buffers
from repro.core.dsa.base import Offload, UlpKind


@dataclass
class _TrackedRange:
    """One offloaded destination range in the controller-side table."""

    base: int
    size: int
    expiry_cycle: int
    retired: bool = False


@dataclass
class DirectOffloadStats:
    offloads: int = 0
    compute_reads: int = 0
    timer_evictions: int = 0
    forced_evictions: int = 0


class DirectOffloadEngine:
    """Software + extended-controller side of the Sec. IV-E model."""

    #: default residency before the controller's timer retires a range
    DEFAULT_TIMER_CYCLES = 20_000

    def __init__(self, llc, memory_controller, driver,
                 timer_cycles: int = DEFAULT_TIMER_CYCLES):
        self.llc = llc
        self.mc = memory_controller
        self.driver = driver
        self.timer_cycles = timer_cycles
        self.stats = DirectOffloadStats()
        self._table = []  # controller-side offloaded-address table

    # -- offload ------------------------------------------------------------------

    def offload(
        self, dbuf: int, sbuf: int, size: int, context: object, kind: UlpKind,
    ) -> Offload:
        """Transform [sbuf, sbuf+size) into dbuf without touching the cache.

        The source must already be in DRAM (the caller flushes if it ever
        was cached); compute reads then stream it to the DSA, and the
        destination range is entered into the controller's table for
        timer-driven retirement.
        """
        pages = check_buffers(dbuf, sbuf, size)
        self.llc.flush_range(sbuf, size)
        self.mc.fence()
        offload = self.driver.register_offload(kind, context, sbuf, dbuf, pages)
        for offset in range(0, size, CACHELINE_SIZE):
            self.mc.compute_read_line(sbuf + offset)
            self.stats.compute_reads += 1
        self._table.append(
            _TrackedRange(base=dbuf, size=size, expiry_cycle=self.mc.cycle + self.timer_cycles)
        )
        self.stats.offloads += 1
        return offload

    # -- controller-side timer table -------------------------------------------------

    def tick(self) -> int:
        """Retire every tracked range whose timer expired; returns count."""
        retired = 0
        for entry in self._table:
            if not entry.retired and self.mc.cycle >= entry.expiry_cycle:
                self._retire(entry)
                self.stats.timer_evictions += 1
                retired += 1
        self._table = [entry for entry in self._table if not entry.retired]
        return retired

    def retire_all(self) -> int:
        """Force-retire everything (e.g. before the consumer reads)."""
        retired = 0
        for entry in self._table:
            if not entry.retired:
                self._retire(entry)
                self.stats.forced_evictions += 1
                retired += 1
        self._table = []
        return retired

    def _retire(self, entry: _TrackedRange) -> None:
        for offset in range(0, entry.size, CACHELINE_SIZE):
            self.mc.scratchpad_writeback_line(entry.base + offset)
        entry.retired = True

    # -- consumption --------------------------------------------------------------------

    def read_result(self, dbuf: int, size: int) -> bytes:
        """Read the transformed output (retiring its range first if the
        timer has not fired yet)."""
        for entry in list(self._table):
            if entry.base <= dbuf < entry.base + entry.size and not entry.retired:
                self._retire(entry)
                self.stats.forced_evictions += 1
        self._table = [entry for entry in self._table if not entry.retired]
        lines = (size + CACHELINE_SIZE - 1) // CACHELINE_SIZE
        return self.llc.load_range(dbuf, lines)[:size]
