"""Compute DMA: near-memory acceleration on DMA accesses (Sec. IV-E).

The paper's discussion sketches an extension beyond CompCpy: "a CompCpy
augmented with *Compute DMA* support could transform data while an I/O
device is DMAing data to or from SmartDIMM."  This module implements that
model:

1. Software registers source and destination pages exactly as CompCpy does,
   but with the ``SOURCE_WRITE`` trigger — the arbiter taps the *write*
   burst stream instead of the read stream.
2. The I/O device DMAs its payload toward the source buffer.  When the
   lines leak or are pushed out of the DDIO ways, the wrCAS commands reach
   SmartDIMM, the DSA transforms each line, and the result stages in the
   scratchpad against the destination pages.
3. Consumption works exactly as for CompCpy: destination reads are served
   from the scratchpad (S10) or DRAM after self/driver recycling.

Compared with CompCpy, the CPU never touches the payload at all — the only
CPU work is registration.  The trade-off is that the DMA stream must
traverse DRAM (no DDIO short-circuit), which is precisely where the data
was headed anyway for large transfers under contention (Observation 3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.commands import CACHELINE_SIZE
from repro.core.compcpy import CompCpyError, check_buffers
from repro.core.dsa.base import Offload, OffloadTrigger, UlpKind


@dataclass
class ComputeDmaStats:
    transfers: int = 0
    bytes_transformed: int = 0


class ComputeDMA:
    """Inline transformation of device DMA streams."""

    def __init__(self, llc, memory_controller, driver):
        self.llc = llc
        self.mc = memory_controller
        self.driver = driver
        self.stats = ComputeDmaStats()

    def register(
        self, dbuf: int, sbuf: int, size: int, context: object, kind: UlpKind
    ) -> Offload:
        """Arm a write-triggered offload over [sbuf, sbuf+size)."""
        pages = check_buffers(dbuf, sbuf, size)
        # The source range must not hold stale cache lines: an eviction
        # after DMA would re-feed the DSA out of order with old data.
        self.llc.flush_range(sbuf, size)
        self.mc.fence()
        return self.driver.register_offload(
            kind, context, sbuf, dbuf, pages, trigger=OffloadTrigger.SOURCE_WRITE
        )

    def dma_in(self, sbuf: int, data: bytes) -> None:
        """The I/O device DMAs `data` into the armed source buffer.

        Modelled as uncached device writes straight to the memory
        controller (large transfers bypass DDIO or leak immediately under
        the contention regimes where offload is active).
        """
        if sbuf % CACHELINE_SIZE:
            raise CompCpyError("DMA target must be line aligned")
        for offset in range(0, len(data), CACHELINE_SIZE):
            line = data[offset : offset + CACHELINE_SIZE]
            if len(line) < CACHELINE_SIZE:
                line = line + bytes(CACHELINE_SIZE - len(line))
            self.mc.write_line(sbuf + offset, line)
        self.mc.fence()
        self.stats.transfers += 1
        self.stats.bytes_transformed += len(data)

    def read_result(self, dbuf: int, size: int) -> bytes:
        """Read the transformed output through the cache."""
        out = bytearray()
        for offset in range(0, size, CACHELINE_SIZE):
            out.extend(self.llc.load(dbuf + offset))
        return bytes(out[:size])
