"""Cacheline flush driver over the functional LLC.

CompCpy flushes the source buffer before every offload (Algorithm 2 line
19).  The paper argues this is cheap precisely when SmartDIMM is engaged:
offload happens under LLC contention, so the buffer has usually been
evicted already and "flushing 4KB data is 50% faster when the data is
already in DRAM" (Sec. IV-A).  :class:`FlushDriver` executes flushes against
the functional LLC and charges the calibrated per-line costs, so both the
correctness effect (writebacks) and the cost asymmetry are modelled.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.commands import CACHELINE_SIZE
from repro.cpu.costs import CostModel, DEFAULT_COSTS


@dataclass
class FlushResult:
    lines: int
    dirty_lines: int
    cycles: float


class FlushDriver:
    """Flush ranges through a functional LLC while accounting cycles."""

    def __init__(self, llc, costs: CostModel = DEFAULT_COSTS):
        self.llc = llc
        self.costs = costs
        self.total_cycles = 0.0
        self.total_lines = 0

    def flush_range(self, address: int, length: int) -> FlushResult:
        """Flush every line in the range, charging per-line costs."""
        start = address & ~(CACHELINE_SIZE - 1)
        lines = 0
        dirty = 0
        for line_address in range(start, address + length, CACHELINE_SIZE):
            lines += 1
            if self.llc.flush_line(line_address):
                dirty += 1
        cycles = (
            dirty * self.costs.clflush_dirty_cycles
            + (lines - dirty) * self.costs.clflush_clean_cycles
        )
        self.total_cycles += cycles
        self.total_lines += lines
        return FlushResult(lines=lines, dirty_lines=dirty, cycles=cycles)
