"""Byte-addressable physical memory backing store.

Pages materialise lazily (zero-filled) so the model can expose large address
spaces cheaply.  All DRAM devices — plain DIMMs and SmartDIMM's SDRAM behind
the MIG PHY — share this store class.

Fault model: with a :class:`~repro.faults.plan.FaultPlan` attached
(:meth:`PhysicalMemory.attach_fault_plan`), each line read is a decision at
the ``dram.corrupt`` site.  A fired fault flips ``bits`` bits in the
returned line.  The SEC-DED ECC model (``ecc=True``, the default) corrects
single-bit flips (counted in :attr:`EccStats.corrected`) and *detects*
multi-bit flips (counted in :attr:`EccStats.detected_uncorrectable`, line
returned corrupted — the end-to-end checksum layer is what catches it);
with ``ecc=False`` every flip is silent, which is exactly the case the
CompCpy payload checksums exist for.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.commands import CACHELINE_SIZE, PAGE_SIZE
from repro.faults.errors import FaultError
from repro.faults.plan import FaultSite


@dataclass
class EccStats:
    """Error-injection/correction counters for one memory device."""

    injected: int = 0  # faults fired (lines corrupted pre-ECC)
    corrected: int = 0  # single-bit flips scrubbed by SEC-DED
    detected_uncorrectable: int = 0  # multi-bit flips flagged but passed on
    silent: int = 0  # flips delivered with ECC disabled


class PhysicalMemory:
    """Sparse page-granular byte store."""

    def __init__(self, size: int):
        if size % PAGE_SIZE:
            raise ValueError("memory size must be a multiple of %d" % PAGE_SIZE)
        self.size = size
        self._pages = {}
        self._fault_plan = None
        self._ras = None
        self.ecc = True
        self.ecc_stats = EccStats()

    def attach_fault_plan(self, plan, ecc: bool = True) -> None:
        """Enable ``dram.corrupt`` injection on line reads through `plan`."""
        self._fault_plan = plan
        self.ecc = ecc

    def attach_ras(self, ras) -> None:
        """Enable the latent-error RAS model
        (:class:`~repro.dram.ras.MemoryRas`): line reads check for latent
        flips (CE-correct or escalate to poison) and writes repair cells.
        """
        self._ras = ras

    def _maybe_corrupt(self, address: int, data: bytes) -> bytes:
        """Apply one dram.corrupt decision to a line read."""
        plan = self._fault_plan
        if plan is None or not plan.fires(FaultSite.DRAM_CORRUPT):
            return data
        self.ecc_stats.injected += 1
        bits = int(plan.param(FaultSite.DRAM_CORRUPT, "bits", 1))
        if self.ecc and bits == 1:
            # SEC-DED corrects the flip in place; the host sees clean data.
            self.ecc_stats.corrected += 1
            return data
        corrupted = bytearray(data)
        rng = plan.rng(FaultSite.DRAM_CORRUPT)
        for _ in range(max(1, bits)):
            bit = rng.randrange(8 * CACHELINE_SIZE)
            corrupted[bit // 8] ^= 1 << (bit % 8)
        if self.ecc:
            self.ecc_stats.detected_uncorrectable += 1
        else:
            self.ecc_stats.silent += 1
        return bytes(corrupted)

    def _page(self, page_number: int, create: bool) -> bytearray:
        page = self._pages.get(page_number)
        if page is None and create:
            page = bytearray(PAGE_SIZE)
            self._pages[page_number] = page
        return page

    def _check_range(self, address: int, length: int) -> None:
        if address < 0 or address + length > self.size:
            raise ValueError(
                "access [0x%x, 0x%x) outside memory of size 0x%x"
                % (address, address + length, self.size)
            )

    def read(self, address: int, length: int) -> bytes:
        """Read `length` bytes; untouched pages read as zeros."""
        self._check_range(address, length)
        out = bytearray()
        while length:
            page_number, offset = divmod(address, PAGE_SIZE)
            chunk = min(length, PAGE_SIZE - offset)
            page = self._page(page_number, create=False)
            if page is None:
                out.extend(bytes(chunk))
            else:
                out.extend(page[offset : offset + chunk])
            address += chunk
            length -= chunk
        return bytes(out)

    def write(self, address: int, data: bytes) -> None:
        """Write `data` at `address`."""
        self._check_range(address, len(data))
        if self._ras is not None:
            self._ras.on_write(address, len(data))
        offset_in_data = 0
        while offset_in_data < len(data):
            page_number, offset = divmod(address, PAGE_SIZE)
            chunk = min(len(data) - offset_in_data, PAGE_SIZE - offset)
            page = self._page(page_number, create=True)
            page[offset : offset + chunk] = data[offset_in_data : offset_in_data + chunk]
            address += chunk
            offset_in_data += chunk

    def read_line(self, address: int) -> bytes:
        """Read one 64-byte cacheline (must be line-aligned)."""
        if address % CACHELINE_SIZE:
            raise ValueError("unaligned line read at 0x%x" % address)
        if self._ras is not None:
            self._ras.on_read(address)  # may raise PoisonError
        data = self.read(address, CACHELINE_SIZE)
        if self._fault_plan is not None:
            data = self._maybe_corrupt(address, data)
        return data

    def write_line(self, address: int, data: bytes) -> None:
        """Write one 64-byte cacheline (must be line-aligned)."""
        if address % CACHELINE_SIZE:
            raise ValueError("unaligned line write at 0x%x" % address)
        if len(data) != CACHELINE_SIZE:
            raise ValueError("line write must be %d bytes" % CACHELINE_SIZE)
        self.write(address, data)

    def read_lines(self, address: int, count: int) -> tuple:
        """Read up to `count` consecutive cachelines as one burst.

        Returns ``(data, error)``.  With a fault plan or RAS engine
        attached, every line is its own :meth:`read_line` (one RAS check
        and one ``dram.corrupt`` decision per line, in line order), and the
        burst stops at the first line whose read raises a
        :class:`~repro.faults.errors.FaultError`: `data` holds the lines
        before it and `error` is that exception, for the caller to raise
        once it has charged the stopping access.  `error` is None when
        every line was read.
        """
        if address % CACHELINE_SIZE:
            raise ValueError("unaligned line read at 0x%x" % address)
        if self._fault_plan is None and self._ras is None:
            return self.read(address, count * CACHELINE_SIZE), None
        parts = []
        for m in range(count):
            try:
                parts.append(self.read_line(address + (m << 6)))
            except FaultError as error:
                return b"".join(parts), error
        return b"".join(parts), None

    @property
    def resident_bytes(self) -> int:
        """Bytes actually materialised (for tests and memory accounting)."""
        return PAGE_SIZE * len(self._pages)
