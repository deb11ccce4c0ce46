"""DDR4 memory substrate.

Models the pieces of the memory system SmartDIMM's offload model depends on:

* :mod:`repro.dram.address` — physical-address ↔ DRAM-coordinate mapping
  with configurable channel interleaving (Sec. V-D).
* :mod:`repro.dram.commands` — ACT/PRE/rdCAS/wrCAS command records
  (Sec. IV-C; the PHY's 4-slot-per-buffer-clock packing is not modelled).
* :mod:`repro.dram.physical_memory` — byte-addressable backing store.
* :mod:`repro.dram.memory_controller` — a command-level memory controller
  with open-page policy, write batching, read priority, and ALERT_N retry.

The model is command-accurate, not AC-timing-accurate: correctness of
CompCpy depends on which commands arrive at the buffer device and in what
order, not on sub-nanosecond DDR timing.
"""

from repro.dram.address import AddressMapping, DramCoordinate, InterleaveMode
from repro.dram.commands import Command, CommandType, CACHELINE_SIZE, PAGE_SIZE
from repro.dram.physical_memory import PhysicalMemory
from repro.dram.memory_controller import MemoryController, PlainDIMM

__all__ = [
    "AddressMapping",
    "DramCoordinate",
    "InterleaveMode",
    "Command",
    "CommandType",
    "CACHELINE_SIZE",
    "PAGE_SIZE",
    "PhysicalMemory",
    "MemoryController",
    "PlainDIMM",
]
