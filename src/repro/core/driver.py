"""SmartDIMM character-device driver model (Sec. V-C).

The real driver initialises a character device, maps SmartDIMM's physical
range to kernel virtual addresses, and hands ranges to userspace on demand.
Here the driver owns a page allocator over the SmartDIMM address space
(excluding the MMIO config page) and performs the uncached MMIO traffic —
status reads, pending-list reads, and page-pair registration writes — on
behalf of the CompCpy library.
"""

from __future__ import annotations

from repro.dram.commands import CACHELINE_SIZE, PAGE_SIZE
from repro.core.smartdimm import SmartDIMM, _EMPTY_SLOT, pack_register_record
from repro.core.dsa.base import Offload, OffloadTrigger, UlpKind


class OutOfDeviceMemoryError(Exception):
    """No contiguous run of free SmartDIMM pages satisfies the request."""


class SmartDIMMDriver:
    """Allocates SmartDIMM pages and speaks MMIO to the device."""

    def __init__(self, device: SmartDIMM, memory_controller, base_address: int = 0):
        self.device = device
        self.mc = memory_controller
        self.base_address = base_address
        limit = device.mmio_base
        self._free_pages = list(
            range((base_address + PAGE_SIZE - 1) // PAGE_SIZE, (limit - 1) // PAGE_SIZE + 1)
        )
        self._free_dirty = False  # True after frees append out of order
        self._allocated = {}

    # -- page allocation ----------------------------------------------------------

    def alloc_pages(self, count: int) -> int:
        """Reserve `count` physically contiguous pages; returns base address.

        Contiguity matters: CompCpy offloads assume the message is laid out
        sequentially on one SmartDIMM (Sec. V, single-channel mode).
        """
        if count <= 0:
            raise ValueError("page count must be positive")
        # First fit over the ascending free list, re-sorted lazily after
        # frees; the run is removed with one slice deletion.
        free = self._free_pages
        if self._free_dirty:
            free.sort()
            self._free_dirty = False
        n = len(free)
        i = 0
        while i < n:
            j = i + 1
            while j < n and j - i < count and free[j] == free[j - 1] + 1:
                j += 1
            if j - i == count:
                base = free[i] * PAGE_SIZE
                del free[i:j]
                self._allocated[base] = count
                return base
            i = j
        raise OutOfDeviceMemoryError("no run of %d free SmartDIMM pages" % count)

    def free_pages(self, base_address: int) -> None:
        """Release an allocation, reclaiming any still-pending lines first."""
        count = self._allocated.pop(base_address, None)
        if count is None:
            raise KeyError("0x%x was not allocated by this driver" % base_address)
        first = base_address // PAGE_SIZE
        for page in range(first, first + count):
            self.reclaim_page(page)
        self._free_pages.extend(range(first, first + count))
        self._free_dirty = True

    def reclaim_page(self, page_number: int) -> int:
        """Recycle any scratchpad lines still pending for `page_number`.

        Self-recycling leaves an equilibrium of pending pages behind
        (Fig. 10); before the kernel reuses a page for an unrelated
        allocation it must drain them.  The driver writes the pending lines
        — the arbiter replaces each burst with the scratchpad data (S8/S9),
        so the written payload is irrelevant — spinning past the DSA-latency
        window when a write lands too early (S7).  Returns lines recycled.

        The writes go out as runs of consecutive pending lines, one
        :meth:`MemoryController.write_lines_now` each, which equals writing
        them one by one as long as no line of a run would make that loop
        spin.  So a run starts with the spin for its first line, and a
        later line joins only if it is ready by `cas_cycles` per line
        after the spin: each earlier write advances the clock at least
        that much, so the per-line loop would find it ready.
        """
        binding = self.device._page_binding.get(page_number)
        if binding is None:
            return 0
        offload, position, is_source = binding
        if is_source:
            return self.reclaim_page(offload.dbuf_pages[position])
        index = offload.scratchpad_indices[position]
        pending = self.device.scratchpad.pending_lines(index)
        # A page can only be released on its last pending line's write,
        # so its record stays valid for the whole reclaim.
        ready_cycles = self.device.scratchpad.page(index).ready_cycles
        cas = self.mc.timing.cas_cycles
        i = 0
        while i < len(pending):
            first = pending[i]
            ready = ready_cycles[first]
            if ready is not None and self.mc.cycle < ready:
                self.mc.cycle = ready  # CPU spins until the DSA catches up
            start = self.mc.cycle
            j = i + 1
            while j < len(pending) and pending[j] == first + j - i:
                ready = ready_cycles[pending[j]]
                if ready is not None and ready > start + cas * (j - i):
                    break
                j += 1
            self.mc.write_lines_now(page_number * PAGE_SIZE + first * CACHELINE_SIZE,
                                    [bytes(CACHELINE_SIZE)] * (j - i))
            i = j
        return len(pending)

    # -- MMIO ------------------------------------------------------------------------

    def read_free_pages(self) -> int:
        """SmartDIMMConfig[0] in Algorithm 2: free scratchpad pages."""
        status = self.mc.read_line(self.device.mmio_status_address)
        return int.from_bytes(status[0:8], "little")

    def read_pending_pages(self, limit: int = 1024) -> list:
        """Algorithm 1's readPendingList: pending destination page numbers."""
        pages = []
        chunk = 0
        while len(pages) < limit:
            data = self.mc.read_line(self.device.pending_list_address(chunk))
            empty = False
            for i in range(0, CACHELINE_SIZE, 8):
                value = int.from_bytes(data[i : i + 8], "little")
                if value == _EMPTY_SLOT:
                    empty = True
                    break
                pages.append(value)
            if empty or chunk >= PAGE_SIZE // CACHELINE_SIZE - 2:
                break
            chunk += 1
        return pages[:limit]

    # -- offload registration ------------------------------------------------------------

    def register_offload(
        self,
        kind: UlpKind,
        context: object,
        sbuf: int,
        dbuf: int,
        pages: int,
        trigger: OffloadTrigger = OffloadTrigger.SOURCE_READ,
    ) -> Offload:
        """Create the offload and register every page pair via MMIO writes."""
        if sbuf % PAGE_SIZE or dbuf % PAGE_SIZE:
            raise ValueError("offload buffers must be page aligned")
        offload = self.device.create_offload(kind, context)
        try:
            for position in range(pages):
                record = pack_register_record(
                    offload_id=offload.offload_id,
                    sbuf_page=(sbuf // PAGE_SIZE) + position,
                    dbuf_page=(dbuf // PAGE_SIZE) + position,
                    position=position,
                    total_pages=pages,
                    trigger=trigger,
                )
                # MMIO is uncached: the write bypasses the LLC and the write queue.
                self.mc.write_line_now(self.device.mmio_register_address, record)
        except Exception:
            # A failed pair registration rolled itself back, but earlier
            # positions of this offload are live on the device — abort them
            # so the caller can retry (or onload) from a clean slate.
            self.device.abort_offload(offload.offload_id)
            raise
        return offload

    def abort_offload(self, offload: Offload) -> int:
        """Tear down a live offload on the device (wedged-DSA recovery).

        Must run *before* :meth:`free_pages`: once aborted, the pages have
        no scratchpad bindings left, so reclaim does not spin waiting on a
        DSA that will never finish.  Returns scratchpad pages freed.
        """
        return self.device.abort_offload(offload.offload_id)
