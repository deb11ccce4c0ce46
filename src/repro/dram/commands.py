"""DDR command records and the AxDIMM 4-slot encoding.

SmartDIMM is controlled *solely* by the command stream the host memory
controller already produces (Sec. IV-C): row activates (ACT), precharges
(PRE), read column strobes (rdCAS) and write column strobes (wrCAS).  The
buffer device runs at one quarter of the DRAM clock, so the DDR PHY packs up
to four commands into each buffer-device clock; :class:`SlotFrame` models
that packing and the slot ordering guarantee (slot 0 issues first).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

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
    MMIO_WR = "MMIO_WR"  # wrCAS into SmartDIMM's MMIO config space
    MMIO_RD = "MMIO_RD"  # rdCAS from SmartDIMM's MMIO config space
    CMP_RDCAS = "cmpRdCAS"  # compute read: DRAM -> DSA only, no data burst
    SPAD_WB = "spadWB"  # scratchpad line -> DRAM, buffer-device internal


@dataclass(slots=True)
class Command:
    """One DDR command as decoded by the slot decoder.

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
        if self.kind in (CommandType.WRCAS, CommandType.MMIO_WR):
            if len(self.data) != CACHELINE_SIZE:
                raise ValueError(
                    "%s data burst must be %d bytes, got %d"
                    % (self.kind.value, CACHELINE_SIZE, len(self.data))
                )

    @property
    def is_cas(self) -> bool:
        return self.kind in (
            CommandType.RDCAS,
            CommandType.WRCAS,
            CommandType.MMIO_RD,
            CommandType.MMIO_WR,
            CommandType.CMP_RDCAS,
            CommandType.SPAD_WB,
        )


@dataclass
class SlotFrame:
    """Up to four DDR commands delivered in one buffer-device clock.

    The MIG PHY re-serialises slots onto consecutive DDR4 clocks, slot 0
    first; the arbiter therefore processes slots in index order.
    """

    buffer_cycle: int
    slots: list = field(default_factory=list)

    MAX_SLOTS = 4

    def add(self, command: Command) -> bool:
        """Append a command; returns False when the frame is full."""
        if len(self.slots) >= self.MAX_SLOTS:
            return False
        self.slots.append(command)
        return True

    def __iter__(self):
        return iter(self.slots)

    def __len__(self):
        return len(self.slots)


def pack_frames(commands: list, dram_cycles_per_buffer_cycle: int = 4) -> list:
    """Group a command stream into slot frames by DRAM cycle.

    Commands are assumed sorted by `cycle`; each frame covers
    `dram_cycles_per_buffer_cycle` DRAM cycles.
    """
    frames = []
    current = None
    for command in commands:
        buffer_cycle = command.cycle // dram_cycles_per_buffer_cycle
        if current is None or current.buffer_cycle != buffer_cycle or not current.add(command):
            current = SlotFrame(buffer_cycle=buffer_cycle, slots=[command])
            frames.append(current)
    return frames
