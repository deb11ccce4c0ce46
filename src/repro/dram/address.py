"""Physical-address ↔ DRAM-coordinate mapping.

The buffer device sees only (bank group, bank, row, column) plus chip
select; to decide whether a CAS targets an acceleration range it must
*regenerate* the physical address (the Addr Remap module of Fig. 5).  That
forces the mapping to be invertible, which this module guarantees by
construction: the address is a pure bit-field concatenation.

Two interleaving modes from Sec. V-D are supported:

* ``SINGLE_CHANNEL`` — 4 KB pages land wholly on one DIMM (AxDIMM's mode;
  required for non-size-preserving ULPs like deflate).
* ``CACHELINE`` — consecutive 64-byte lines round-robin across channels
  (the common server default; fine for size-preserving ULPs like AES-GCM
  provided every channel's DIMM holds the config, Sec. V-D).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.dram.commands import CACHELINE_SIZE


class InterleaveMode(enum.Enum):
    """How consecutive cachelines map to memory channels (Sec. V-D)."""

    SINGLE_CHANNEL = "single_channel"
    CACHELINE = "cacheline"


@dataclass(frozen=True, slots=True)
class DramCoordinate:
    """Where a 64-byte line lives inside the memory system."""

    channel: int
    bank_group: int
    bank: int
    row: int
    column: int

    def bank_index(self, banks_per_group: int) -> int:
        """Flat bank id used to index the bank table."""
        return self.bank_group * banks_per_group + self.bank


def _bits_for(value: int) -> int:
    if value <= 0 or value & (value - 1):
        raise ValueError("%d is not a positive power of two" % value)
    return value.bit_length() - 1


class AddressMapping:
    """Invertible bit-field mapping between physical addresses and coordinates.

    Layout (most significant to least):
    ``row | bank_group | bank | column | [channel] | line offset``
    with the channel bits present only in CACHELINE mode (placed just above
    the 6 offset bits so consecutive lines alternate channels).
    """

    def __init__(
        self,
        channels: int = 1,
        bank_groups: int = 4,
        banks_per_group: int = 4,
        rows: int = 1 << 16,
        columns_per_row: int = 128,
        interleave: InterleaveMode = InterleaveMode.SINGLE_CHANNEL,
    ):
        self.channels = channels
        self.bank_groups = bank_groups
        self.banks_per_group = banks_per_group
        self.rows = rows
        self.columns_per_row = columns_per_row
        self.interleave = interleave
        self._offset_bits = _bits_for(CACHELINE_SIZE)
        self._channel_bits = _bits_for(channels) if channels > 1 else 0
        self._column_bits = _bits_for(columns_per_row)
        self._bank_bits = _bits_for(banks_per_group)
        self._bg_bits = _bits_for(bank_groups)
        self._row_bits = _bits_for(rows)
        # Precomputed absolute shift/mask per field so decode() is a flat
        # chain of and/shift with no per-call recomputation.  Field order
        # (LSB up): offset | [channel if CACHELINE] | column | bank |
        # bank_group | row | [channel if SINGLE_CHANNEL].
        shift = self._offset_bits
        self._chan_lo_shift = shift  # CACHELINE-mode channel position
        if interleave is InterleaveMode.CACHELINE and channels > 1:
            shift += self._channel_bits
        self._col_shift = shift
        self._col_mask = columns_per_row - 1
        shift += self._column_bits
        self._bank_shift = shift
        self._bank_mask = banks_per_group - 1
        shift += self._bank_bits
        self._bg_shift = shift
        self._bg_mask = bank_groups - 1
        shift += self._bg_bits
        self._row_shift = shift
        self._row_mask = rows - 1
        shift += self._row_bits
        self._chan_hi_shift = shift  # SINGLE_CHANNEL-mode channel position
        self._chan_mask = channels - 1 if channels > 1 else 0
        self._chan_is_low = interleave is InterleaveMode.CACHELINE and channels > 1
        self._chan_is_high = (
            interleave is InterleaveMode.SINGLE_CHANNEL and channels > 1
        )
        # Per-page decode cache: page number -> tuple of LINES_PER_PAGE
        # coordinates.  Pages are revisited constantly (64 lines each) and
        # the working set is small, so a bounded dict cleared on overflow
        # beats LRU bookkeeping.
        self._page_cache = {}
        self._page_cache_limit = 4096
        self._run_cache = {}

    @property
    def capacity_per_channel(self) -> int:
        return (
            self.rows
            * self.bank_groups
            * self.banks_per_group
            * self.columns_per_row
            * CACHELINE_SIZE
        )

    @property
    def total_capacity(self) -> int:
        return self.capacity_per_channel * self.channels

    # -- forward mapping -----------------------------------------------------

    def decode(self, address: int) -> DramCoordinate:
        """Physical address -> DRAM coordinate (line-aligned).

        A flat shift/mask chain over fields precomputed in ``__init__``;
        :meth:`encode`, the Addr Remap inverse, is its check
        (``encode(decode(a)) == a`` for every line-aligned address).
        """
        if not 0 <= address < self.total_capacity:
            raise ValueError("address 0x%x out of range" % address)
        if self._chan_is_low:
            channel = (address >> self._chan_lo_shift) & self._chan_mask
        elif self._chan_is_high:
            channel = (address >> self._chan_hi_shift) & self._chan_mask
        else:
            channel = 0
        return DramCoordinate(
            channel=channel,
            bank_group=(address >> self._bg_shift) & self._bg_mask,
            bank=(address >> self._bank_shift) & self._bank_mask,
            row=(address >> self._row_shift) & self._row_mask,
            column=(address >> self._col_shift) & self._col_mask,
        )

    def page_coordinates(self, page_number: int) -> tuple:
        """Coordinates of every line of a 4 KB page, cached per page."""
        cached = self._page_cache.get(page_number)
        if cached is None:
            if len(self._page_cache) >= self._page_cache_limit:
                self._page_cache.clear()
            decode = self.decode
            cached = tuple(
                decode(address) for address in self.lines_of_page(page_number)
            )
            self._page_cache[page_number] = cached
        return cached

    def line_coordinate(self, address: int) -> DramCoordinate:
        """Cached decode: coordinate of the line containing `address`."""
        return self.page_coordinates(address >> 12)[(address >> 6) & 63]

    def page_runs(self, page_number: int) -> tuple:
        """Runs of consecutive page lines sharing (channel, bank, row).

        Returns ``((start_line, count), ...)`` over the page's 64 lines.
        SINGLE_CHANNEL mode with >=64 columns per row yields one run per
        page; CACHELINE interleave degenerates to length-1 runs (correct,
        just not batched).
        """
        runs = self._run_cache.get(page_number)
        if runs is None:
            coords = self.page_coordinates(page_number)
            banks = self.banks_per_group
            out = []
            start = 0
            key = None
            for index, coord in enumerate(coords):
                this = (coord.channel, coord.bank_index(banks), coord.row)
                if key is None:
                    key = this
                elif this != key or coord.column != coords[index - 1].column + 1:
                    out.append((start, index - start))
                    start, key = index, this
            out.append((start, len(coords) - start))
            if len(self._run_cache) >= self._page_cache_limit:
                self._run_cache.clear()
            runs = self._run_cache[page_number] = tuple(out)
        return runs

    def run_length(self, address: int) -> int:
        """Lines from `address` to the end of its same-row run (>= 1).

        A batch issuer may coalesce up to this many consecutive lines into
        one open-row burst without changing the ACT/PRE stream.  Runs never
        cross a 4 KB page boundary (callers re-query per page).
        """
        line = (address >> 6) & 63
        for start, count in self.page_runs(address >> 12):
            if start <= line < start + count:
                return start + count - line
        raise AssertionError("line %d not covered by page runs" % line)

    # -- inverse mapping (the Addr Remap module) ------------------------------

    def encode(self, coordinate: DramCoordinate) -> int:
        """DRAM coordinate -> line-aligned physical address."""
        bits = coordinate.row
        if self.interleave is InterleaveMode.SINGLE_CHANNEL and self.channels > 1:
            bits |= coordinate.channel << self._row_bits
        bits = (bits << self._bg_bits) | coordinate.bank_group
        bits = (bits << self._bank_bits) | coordinate.bank
        bits = (bits << self._column_bits) | coordinate.column
        if self.interleave is InterleaveMode.CACHELINE and self.channels > 1:
            bits = (bits << self._channel_bits) | coordinate.channel
        return bits << self._offset_bits

    def page_number(self, address: int) -> int:
        """4 KB page number containing `address`."""
        return address >> 12

    def lines_of_page(self, page_number: int) -> range:
        """Line-aligned addresses covering one 4 KB page."""
        base = page_number << 12
        return range(base, base + 4096, CACHELINE_SIZE)
