"""CompCpy: the inline-offload memory copy API (Algorithms 1 and 2).

CompCpy extends plain memcpy: while copying a source buffer to a
destination buffer through the cache hierarchy, the data is transformed by
the DSA on SmartDIMM, and the result materialises at the destination's
physical addresses (in the scratchpad first, then DRAM via self-recycle).

Sequence per call, exactly mirroring Algorithm 2:

1. page-alignment check;
2. under a lock, lazily refresh ``freePages`` from MMIO and Force-Recycle
   (Algorithm 1) in the unlikely case the scratchpad is out of space;
3. flush the source buffer to DRAM (cheap when it is already there);
4. register every sbuf/dbuf page pair plus context via MMIO;
5. the copy itself — 64-byte chunks with a memory barrier after each when
   the DSA needs ordered input (deflate, inflate, serde), one bulk copy
   otherwise (TLS).  Both are LLC range operations: the ordered one reads
   each run of missing source lines as one fenced same-row burst (rdCAS,
   then the barrier's cycles, per line) and steps line by line past a
   resident source or a fill that might evict a dirty line;
6. flush the destination so later reads observe the transformed data rather
   than the stale plaintext the copy left in the cache.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.dram.commands import CACHELINE_SIZE, PAGE_SIZE
from repro.core.driver import SmartDIMMDriver
from repro.core.scratchpad import ScratchpadFullError
from repro.core.translation_table import CuckooInsertError
from repro.core.dsa.base import Offload, UlpKind
from repro.faults.checksum import verify_checksum
from repro.overload.retry import RetryBudget


class CompCpyError(Exception):
    """A CompCpy precondition failed (alignment, size, or capacity)."""


def check_buffers(dbuf: int, sbuf: int, size: int) -> int:
    """Algorithm 2's buffer precondition, shared by every registration path
    (CompCpy, Compute DMA, direct offload): both buffers page aligned and
    `size` whole pages.  Returns the page count."""
    if dbuf % PAGE_SIZE or sbuf % PAGE_SIZE:
        raise CompCpyError("Not Aligned")
    if size <= 0 or size % PAGE_SIZE:
        raise CompCpyError("size must be a positive multiple of 4KB")
    return size // PAGE_SIZE


@dataclass
class CompCpyStats:
    calls: int = 0
    pages_offloaded: int = 0
    force_recycles: int = 0
    force_recycled_lines: int = 0
    free_page_refreshes: int = 0
    flushed_dirty_lines: int = 0
    ordered_copies: int = 0
    registrations_retried: int = 0  # recoveries from full scratchpad/table
    retries_denied: int = 0  # recoveries refused: shared retry budget dry
    checksums_verified: int = 0  # end-to-end read-back CRC comparisons


class CompCpy:
    """The userspace CompCpy library bound to one SmartDIMM."""

    def __init__(self, llc, memory_controller, driver: SmartDIMMDriver,
                 retry_budget: RetryBudget = None):
        self.llc = llc
        self.mc = memory_controller
        self.driver = driver
        self.stats = CompCpyStats()
        # Force-Recycle registration retries draw from this shared bucket
        # (typically the session's, so one storm cannot monopolise the
        # recovery path); a private default keeps standalone use working.
        self.retry_budget = retry_budget or RetryBudget()
        self._lock = threading.Lock()
        self._free_pages = -1  # global freePages variable of Algorithm 2

    # -- Algorithm 2 ------------------------------------------------------------------

    def compcpy(
        self,
        dbuf: int,
        sbuf: int,
        size: int,
        context: object,
        kind: UlpKind,
        ordered: bool = False,
        flush_destination: bool = True,
    ) -> Offload:
        """Copy `size` bytes from sbuf to dbuf while the DSA transforms them.

        `size` must span whole pages (registration is page-granular) and
        both buffers must be page aligned.  Returns the device-side offload
        handle (tests and the pending-list machinery inspect it).

        `flush_destination=False` defers the USE-time flush to the caller:
        the plaintext copies stay dirty in the LLC and natural capacity
        evictions perform the self-recycling over time — the regime Fig. 10
        measures.  The caller must flush (or rely on the driver's reclaim)
        before reading the destination through the cache.
        """
        pages = check_buffers(dbuf, sbuf, size)

        with self._lock:
            # Registration allocates exactly `pages` scratchpad pages, so
            # the reservation is viable whenever free >= pages; the guard,
            # the post-recycle check, and the decrement all use that bound.
            if self._free_pages < pages:
                self._free_pages = self.driver.read_free_pages()
                self.stats.free_page_refreshes += 1
                if self._free_pages < pages:  # unlikely
                    self.force_recycle(pages)
                    self._free_pages = self.driver.read_free_pages()
                    if self._free_pages < pages:
                        raise CompCpyError("scratchpad exhausted even after Force-Recycle")
            self._free_pages -= pages

        # Flush sbuf to DRAM so the copy's loads generate rdCAS commands the
        # DSA can observe (50% cheaper when the data already left the cache).
        self.stats.flushed_dirty_lines += self.llc.flush_range(sbuf, size)
        self.mc.fence()

        try:
            offload = self.driver.register_offload(kind, context, sbuf, dbuf, pages)
        except (ScratchpadFullError, CuckooInsertError):
            # Scratchpad raced away despite the reservation, or the cuckoo
            # table had no path — either way the failed registration rolled
            # itself back; force-recycle (freeing pages *and* their
            # translations) and retry once, exactly as Algorithm 2 would —
            # but only while the shared retry budget holds tokens.  A dry
            # bucket means registrations are failing faster than offloads
            # succeed; piling force-recycles on top of that amplifies the
            # overload, so fail fast instead (the session's resilience
            # guard onloads the op to the CPU).
            if not self.retry_budget.try_acquire():
                self.stats.retries_denied += 1
                raise
            self.stats.registrations_retried += 1
            self.force_recycle(pages)
            offload = self.driver.register_offload(kind, context, sbuf, dbuf, pages)

        try:
            if ordered:
                # A membar between 64-byte segments; the flush and fence
                # above leave the write queue empty for its fenced bursts.
                self.stats.ordered_copies += 1
                self.llc.copy_range_ordered(sbuf, dbuf, size // CACHELINE_SIZE)
            else:
                self.llc.copy_range(sbuf, dbuf, size // CACHELINE_SIZE)

            # USE(dbuf): flush so subsequent reads see the DSA's output, not
            # the plaintext copies the memcpy left dirty in the LLC.  The
            # writebacks this triggers are the self-recycle traffic of
            # Sec. IV-B.
            if flush_destination:
                self.llc.flush_range(dbuf, size)
                self.mc.fence()
        except Exception:
            # A fault inside the copy (a poisoned source line) leaves the
            # registered offload live, and only this call holds its handle:
            # abort it so the caller's page frees find no bindings left.
            self.driver.abort_offload(offload)
            raise
        self.stats.calls += 1
        self.stats.pages_offloaded += pages
        self.retry_budget.on_success()  # completed copies refill the bucket
        return offload

    # -- Algorithm 1 -------------------------------------------------------------------

    def force_recycle(self, required_pages: int) -> int:
        """Explicitly recycle pending scratchpad pages (rarely called).

        First flushes the pending addresses (recycling any lines whose dirty
        copies still sit in the LLC); lines whose cache copies are already
        gone are re-materialised with a load (served from the scratchpad,
        S10), re-dirtied, and flushed so their writeback carries them home.
        """
        freed = 0
        self.stats.force_recycles += 1
        scratchpad = self.driver.device.scratchpad
        recycled_before = scratchpad.self_recycled_lines + scratchpad.force_recycled_lines
        for page_number in self.driver.read_pending_pages():
            base = page_number * PAGE_SIZE
            self.llc.flush_range(base, PAGE_SIZE)
            self.mc.fence()
            for offset in range(0, PAGE_SIZE, CACHELINE_SIZE):
                address = base + offset
                data = self.llc.load(address)  # S10: scratchpad serve
                self.llc.store(address, data)
                self.llc.flush_line(address)  # writeback -> recycle
            self.mc.fence()
            freed += 1
            if freed > required_pages:
                break
        recycled_now = scratchpad.self_recycled_lines + scratchpad.force_recycled_lines
        self.stats.force_recycled_lines += recycled_now - recycled_before
        return freed

    # -- end-to-end integrity ---------------------------------------------------------------

    def verify_destination(self, offload: Offload, dbuf: int, size: int):
        """Compare the host's read-back of `dbuf` against the device-side
        CRC snapshotted at finalisation.

        Raises :class:`~repro.faults.errors.CorruptionDetectedError` on a
        mismatch and returns the checksum on success.  Returns None when
        the device took no snapshot (no fault plan attached, or
        multi-channel interleaving where no single device sees the whole
        output).
        """
        if offload.device_checksum is None:
            return None
        data = self.read_buffer(dbuf, size)
        self.stats.checksums_verified += 1
        return verify_checksum(
            data, offload.device_checksum, site="compcpy.verify", address=dbuf
        )

    # -- buffer helpers ---------------------------------------------------------------------

    def write_buffer(self, address: int, data: bytes) -> None:
        """Application writes into a (page-aligned) buffer through the LLC."""
        if address % CACHELINE_SIZE:
            raise CompCpyError("buffer writes must be line aligned")
        full = len(data) - len(data) % CACHELINE_SIZE
        self.llc.store_range(address, data[:full])
        if full < len(data):
            # Partial tail line: read-modify-write through the cache.
            chunk = data[full:]
            current = self.llc.load(address + full)
            self.llc.store(address + full, chunk + current[len(chunk) :])

    def read_buffer(self, address: int, size: int) -> bytes:
        """Application reads a buffer through the LLC (USE of Algorithm 2).
        An empty read touches no line."""
        if size <= 0:
            return b""
        start = address & ~(CACHELINE_SIZE - 1)
        lines = (address + size - start + CACHELINE_SIZE - 1) // CACHELINE_SIZE
        skew = address - start
        return self.llc.load_range(start, lines)[skew : skew + size]
