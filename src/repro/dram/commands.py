"""DDR command records.

SmartDIMM is controlled *solely* by the command stream the host memory
controller already produces (Sec. IV-C): row activates (ACT), precharges
(PRE), read column strobes (rdCAS) and write column strobes (wrCAS); MMIO
register accesses are rdCAS/wrCAS to the MMIO page.  The buffer device
runs at one quarter of the DRAM clock, so the DDR PHY packs up to four
commands into each buffer-device clock.  That slot packing is not
modelled: the PHY re-serialises the slots in issue order (slot 0 first),
so the arbiter sees the commands one at a time, in the order the
controller issues them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

CACHELINE_SIZE = 64
PAGE_SIZE = 4096
LINES_PER_PAGE = PAGE_SIZE // CACHELINE_SIZE  # 64


class CommandType(enum.Enum):
    """The DDR4 command subset visible to the buffer device.

    CMP_RDCAS and SPAD_WB are the *new DDR commands* the paper's discussion
    proposes (Sec. IV-E): with a modifiable memory controller, a compute
    read directs DRAM data solely to the DSA — no burst travels to the
    controller, no cacheline is polluted — and a scratchpad writeback tells
    the buffer device to retire a staged line to DRAM internally.
    """

    ACT = "ACT"  # activate a row (RAS)
    PRE = "PRE"  # precharge (close) a row
    RDCAS = "rdCAS"  # read column strobe, one 64-byte burst
    WRCAS = "wrCAS"  # write column strobe, one 64-byte burst
    CMP_RDCAS = "cmpRdCAS"  # compute read: DRAM -> DSA only, no data burst
    SPAD_WB = "spadWB"  # scratchpad line -> DRAM, buffer-device internal


@dataclass(slots=True)
class Command:
    """One DDR command as the buffer device receives it.

    `address` is the 64-byte-aligned physical address for CAS commands (the
    buffer device regenerates it through the bank table + addr remap); for
    ACT/PRE it carries the row/bank coordinates only.
    """

    kind: CommandType
    cycle: int
    address: int = 0
    bank_group: int = 0
    bank: int = 0
    row: int = 0
    column: int = 0
    data: bytes = b""

    def __post_init__(self):
        if self.kind is CommandType.WRCAS:
            if len(self.data) != CACHELINE_SIZE:
                raise ValueError(
                    "%s data burst must be %d bytes, got %d"
                    % (self.kind.value, CACHELINE_SIZE, len(self.data))
                )
