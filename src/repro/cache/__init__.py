"""CPU last-level cache substrate.

SmartDIMM's self-recycling mechanism is driven entirely by LLC behaviour:
dirty dbuf lines written back by the LLC arrive at the DIMM as wrCAS
commands and recycle scratchpad pages (Sec. IV-B).  The model here is a
functional set-associative write-back cache that

* holds real data (the CompCpy micro-simulation is bit-accurate end to end),
* supports Intel CAT-style way masking (used by Fig. 10 to shrink the LLC),
* models DDIO / Direct Cache Access: DMA fills are confined to a small
  subset of ways, so under contention DMA data leaks to DRAM before the CPU
  consumes it (Observation 3).
"""

from repro.cache.llc import LLC, CacheStats

__all__ = ["LLC", "CacheStats"]
