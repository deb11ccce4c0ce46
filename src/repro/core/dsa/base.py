"""The DSA <-> arbiter contract.

One :class:`Offload` describes one CompCpy call: an ordered set of source
pages, the matching destination pages, the scratchpad pages staging the
output, and the ULP context.  The arbiter feeds sbuf cachelines to the DSA
as their rdCAS commands arrive, one :meth:`DSA.process_run` call per run of
consecutive not-yet-processed lines in a burst (a single line is a run of
one); the DSA writes results into the scratchpad and reports per-line
readiness through the scratchpad's line states.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.dram.commands import CACHELINE_SIZE, LINES_PER_PAGE


class UlpKind(enum.Enum):
    """The ULP a DSA offload executes."""

    TLS_ENCRYPT = "tls_encrypt"
    TLS_DECRYPT = "tls_decrypt"
    DEFLATE = "deflate"
    INFLATE = "inflate"
    DESERIALIZE = "deserialize"  # extension ULP (see dsa/serde_dsa.py)


class OffloadState(enum.Enum):
    """Lifecycle of a device-side offload."""

    REGISTERED = "registered"
    IN_PROGRESS = "in_progress"
    FINALIZED = "finalized"
    ABORTED = "aborted"  # torn down by wedged-DSA recovery, never finalized


class OffloadTrigger(enum.Enum):
    """What feeds the DSA: source-read interception (CompCpy, the default)
    or source-write interception (Compute DMA, Sec. IV-E — data transformed
    while an I/O device DMAs it into SmartDIMM)."""

    SOURCE_READ = "source_read"
    SOURCE_WRITE = "source_write"


@dataclass
class Offload:
    """Device-side record of one in-flight CompCpy offload."""

    offload_id: int
    kind: UlpKind
    context: object
    sbuf_pages: list  # physical page numbers, in message order
    dbuf_pages: list
    scratchpad_indices: list = field(default_factory=list)  # parallel to dbuf_pages
    config_slot: int = -1
    state: OffloadState = OffloadState.REGISTERED
    processed_lines: set = field(default_factory=set)  # global sbuf line indices
    finalize_cycle: int = None
    trigger: OffloadTrigger = OffloadTrigger.SOURCE_READ
    # With fine-grain channel interleaving (Sec. V-D), each SmartDIMM only
    # ever sees the cachelines routed to its channel; `owned_lines` is that
    # subset (None means the device owns every line — single-channel mode).
    owned_lines: set = None
    # CRC-32 of the full output image, snapshotted at finalisation when a
    # fault plan is attached (single-channel only); the host verifies its
    # read-back against this for end-to-end integrity.
    device_checksum: int = None

    @property
    def total_lines(self) -> int:
        if self.owned_lines is not None:
            return len(self.owned_lines)
        return len(self.sbuf_pages) * LINES_PER_PAGE

    def global_line(self, page_position: int, line_in_page: int) -> int:
        """Offload-wide line index for a line within one registered page."""
        return page_position * LINES_PER_PAGE + line_in_page

    def complete(self) -> bool:
        """True once every line this device owns has fed the DSA."""
        return len(self.processed_lines) == self.total_lines


class ScratchpadWriter:
    """Facade letting a DSA address offload output by global line or byte
    offset.

    Translates run and byte writes into the right scratchpad page/line and
    validates the remaining lines at finalisation; keeps the DSAs
    independent of scratchpad page indices.
    """

    def __init__(self, scratchpad, offload: Offload):
        self._scratchpad = scratchpad
        self._offload = offload

    def write_line_run(self, first_global_line: int, data: bytes, count: int) -> None:
        """Deposit `count` consecutive computed lines (single page) and mark
        them VALID."""
        page_position, line = divmod(first_global_line, LINES_PER_PAGE)
        if line + count > LINES_PER_PAGE:
            raise ValueError("line run crosses a page boundary")
        index = self._offload.scratchpad_indices[page_position]
        self._scratchpad.write_line_run(index, line, data, count)

    def write_bytes(self, offset: int, data: bytes) -> None:
        """Deposit bytes at an offload-wide offset without state changes."""
        while data:
            page_position, in_page = divmod(offset, LINES_PER_PAGE * CACHELINE_SIZE)
            index = self._offload.scratchpad_indices[page_position]
            chunk = min(len(data), LINES_PER_PAGE * CACHELINE_SIZE - in_page)
            self._scratchpad.write_bytes(index, in_page, data[:chunk])
            data = data[chunk:]
            offset += chunk

    def mark_all_remaining_valid(self) -> None:
        """Mark every still-NOT_COMPUTED line VALID (offload finalisation)."""
        from repro.core.scratchpad import LineState

        for index in self._offload.scratchpad_indices:
            page = self._scratchpad.page(index)
            for line, state in enumerate(page.states):
                if state is LineState.NOT_COMPUTED:
                    page.states[line] = LineState.VALID


class DSA:
    """Interface every domain-specific accelerator implements."""

    def begin(self, offload: Offload, writer: ScratchpadWriter) -> None:
        """Called at registration, before any line arrives."""

    def process_run(
        self,
        offload: Offload,
        writer: ScratchpadWriter,
        first_global_line: int,
        data: bytes,
        count: int,
    ) -> None:
        """Consume `count` consecutive 64-byte sbuf lines of one page,
        starting at `first_global_line`.  The arbiter passes only lines not
        yet in `offload.processed_lines`, so re-reads of a source line
        (cache refetches) never double-process."""
        raise NotImplementedError

    def finalize(self, offload: Offload, writer: ScratchpadWriter) -> None:
        """Called when every source line has been processed."""
        raise NotImplementedError

    def context_size_bytes(self, context: object) -> int:
        """Modelled config-memory footprint of the offload context: the
        ``CONTEXT_BYTES_PER_PAGE`` its class declares (Sec. IV-C)."""
        return context.CONTEXT_BYTES_PER_PAGE
