"""The SmartDIMM buffer device: Fig. 5's datapath driven by Fig. 6's arbiter.

SmartDIMM is controlled *solely* by the DDR command stream; it plugs into
:class:`repro.dram.memory_controller.MemoryController` exactly like a
:class:`~repro.dram.memory_controller.PlainDIMM`.  Every CAS walks the
arbiter decision tree:

1. Regenerate the physical address (Bank Table + Addr Remap) — the buffer
   device only sees BG/BA/column; the row was named by the earlier ACT.
2. MMIO config space?  Handle register reads/writes (registration, S17).
3. Translation Table hit?  No → regular DIMM behaviour.
4. Source page + rdCAS → serve DRAM data to the host *and* feed the line to
   the DSA (S6); results land in the Scratchpad.
5. Destination page + wrCAS → if the line's result is ready, *replace* the
   burst with the Scratchpad data and recycle the line (self-recycle,
   S8/S9); if computation is pending, ignore the write (S7).
6. Destination page + rdCAS → serve from the Scratchpad when ready (S10);
   assert ALERT_N to force a controller retry when pending (S13).

Steps 3-6, the data states, have one implementation: the same-row burst
interface :meth:`SmartDIMM.read_line_run` / :meth:`SmartDIMM.write_line_run`,
which serves every rdCAS/wrCAS outside the MMIO page (a single line is a
burst of one) and counts one address regeneration per CAS.
:meth:`SmartDIMM.handle_command` serves the rest of the command stream as
``Command`` objects: ACT/PRE (the Bank Table), the MMIO page (S17) and the
Sec. IV-E CMP_RDCAS / SPAD_WB commands, each regenerating its address
from the Bank Table.  The per-command walk of steps 3-6 lives in the
tests, as the oracle ``PerCommandSmartDIMM`` of ``tests/micro_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.address import AddressMapping, DramCoordinate
from repro.dram.commands import CACHELINE_SIZE, LINES_PER_PAGE, PAGE_SIZE, Command, CommandType
from repro.dram.memory_controller import CasResult
from repro.dram.physical_memory import PhysicalMemory
from repro.faults.checksum import payload_checksum
from repro.faults.errors import DeviceBusyError, FaultError
from repro.faults.plan import FaultSite
from repro.core.bank_table import BankTable
from repro.core.config_memory import ConfigMemory
from repro.core.scratchpad import LineState, Scratchpad
from repro.core.translation_table import TranslationEntry, TranslationTable
from repro.core.dsa.base import (
    Offload,
    OffloadState,
    OffloadTrigger,
    ScratchpadWriter,
    UlpKind,
)
from repro.core.dsa.tls_dsa import TLSDSA
from repro.core.dsa.deflate_dsa import DeflateDSA, InflateDSA
from repro.core.dsa.serde_dsa import SerdeDSA

MMIO_MAGIC = 0x5D17
MMIO_OP_REGISTER_PAIR = 2
_EMPTY_SLOT = 0xFFFFFFFFFFFFFFFF


@dataclass
class SmartDIMMConfig:
    """Sizing knobs, defaulting to the paper's configuration (Sec. VI)."""

    scratchpad_pages: int = 2048  # 8 MB
    config_slots: int = 2048  # 8 MB
    translation_slots: int = 12288  # 3-ary cuckoo at 3x occupancy headroom
    #: modelled cycles from a line's rdCAS to its result being ready in the
    #: scratchpad; the paper measures >1 us of natural slack, so the default
    #: of 160 DRAM cycles (~100 ns at DDR4-3200) keeps ALERT_N rare.
    dsa_line_latency_cycles: int = 160
    finalize_latency_cycles: int = 320
    mmio_base: int = None  # defaults to the top page of the address space
    #: Bounded offload queue: registrations beyond this many concurrently
    #: live offloads raise DeviceBusyError (None: unbounded, the paper's
    #: implicit assumption).  The backpressure half of repro.overload.
    max_inflight_offloads: int = None


@dataclass
class SmartDIMMStats:
    normal_reads: int = 0
    normal_writes: int = 0
    dsa_lines_processed: int = 0
    offloads_registered: int = 0
    offloads_finalized: int = 0
    self_recycles: int = 0
    scratchpad_serves: int = 0  # S10
    ignored_writes: int = 0  # S7
    alerts: int = 0  # S13
    mmio_reads: int = 0
    mmio_writes: int = 0
    pages_registered: int = 0
    pages_deregistered: int = 0
    address_regenerations: int = 0
    compute_reads: int = 0  # Sec. IV-E CMP_RDCAS handled
    spad_writebacks: int = 0  # Sec. IV-E SPAD_WB retirements
    offloads_aborted: int = 0  # wedged-DSA recovery teardowns
    registrations_rolled_back: int = 0  # _register_pair unwinds
    injected_wedges: int = 0  # dsa.wedge faults fired on this device
    injected_storms: int = 0  # dsa.alert_storm faults fired on this device
    injected_sdc: int = 0  # dsa.sdc lane corruptions fired on this device
    busy_rejections: int = 0  # create_offload refused: inflight limit hit


def pack_register_record(
    offload_id: int,
    sbuf_page: int,
    dbuf_page: int,
    position: int,
    total_pages: int,
    trigger: OffloadTrigger = OffloadTrigger.SOURCE_READ,
) -> bytes:
    """Encode one page-pair registration into a 64-byte MMIO burst.

    This is the paper's "source page number, destination page number, and
    any additional context ... within a 64-byte MMIO write" (Sec. IV-C).
    The trigger flag selects CompCpy (read-fed) vs Compute DMA (write-fed)
    interception for the source pages (Sec. IV-E).
    """
    record = bytearray(CACHELINE_SIZE)
    record[0:2] = MMIO_MAGIC.to_bytes(2, "little")
    record[2] = MMIO_OP_REGISTER_PAIR
    record[3] = 1 if trigger is OffloadTrigger.SOURCE_WRITE else 0
    record[4:8] = offload_id.to_bytes(4, "little")
    record[8:16] = sbuf_page.to_bytes(8, "little")
    record[16:24] = dbuf_page.to_bytes(8, "little")
    record[24:26] = position.to_bytes(2, "little")
    record[26:28] = total_pages.to_bytes(2, "little")
    return bytes(record)


def _parse_register_record(data: bytes) -> dict:
    if int.from_bytes(data[0:2], "little") != MMIO_MAGIC:
        raise ValueError("bad MMIO magic")
    if data[2] != MMIO_OP_REGISTER_PAIR:
        raise ValueError("unknown MMIO opcode %d" % data[2])
    return {
        "offload_id": int.from_bytes(data[4:8], "little"),
        "sbuf_page": int.from_bytes(data[8:16], "little"),
        "dbuf_page": int.from_bytes(data[16:24], "little"),
        "position": int.from_bytes(data[24:26], "little"),
        "total_pages": int.from_bytes(data[26:28], "little"),
        "trigger": OffloadTrigger.SOURCE_WRITE if data[3] else OffloadTrigger.SOURCE_READ,
    }


class SmartDIMM:
    """A DIMM whose buffer device hosts the ULP accelerators."""

    def __init__(
        self,
        memory: PhysicalMemory,
        mapping: AddressMapping,
        channel: int = 0,
        config: SmartDIMMConfig = None,
    ):
        self.memory = memory
        self.mapping = mapping
        self.channel = channel
        self.config = config or SmartDIMMConfig()
        self.bank_table = BankTable(mapping.bank_groups, mapping.banks_per_group)
        self.translation_table = TranslationTable(self.config.translation_slots)
        self.scratchpad = Scratchpad(self.config.scratchpad_pages)
        self.config_memory = ConfigMemory(self.config.config_slots)
        self.stats = SmartDIMMStats()
        self.dsas = {
            UlpKind.TLS_ENCRYPT: TLSDSA(),
            UlpKind.TLS_DECRYPT: TLSDSA(),
            UlpKind.DEFLATE: DeflateDSA(),
            UlpKind.INFLATE: InflateDSA(),
            UlpKind.DESERIALIZE: SerdeDSA(),
        }
        if self.config.mmio_base is None:
            self.config.mmio_base = memory.size - PAGE_SIZE
        self.fault_plan = None  # optional FaultPlan probing the DSA sites
        self._offloads = {}  # offload_id -> Offload
        self._page_binding = {}  # page number -> (offload, position, is_source)
        self._next_offload_id = 1
        self._freed_dbuf_pages = {}  # offload_id -> count
        # Pages fully recycled before their offload finalised: released once
        # the DSA is done touching the offload's scratchpad set.
        self._deferred_releases = set()  # (dbuf_page, scratchpad_index)

    def attach_fault_plan(self, plan, ecc: bool = True) -> None:
        """Thread one :class:`~repro.faults.plan.FaultPlan` through every
        device-side injection site: DSA readiness (``dsa.wedge`` /
        ``dsa.alert_storm``), cuckoo insertion (``tt.insert``), scratchpad
        allocation (``scratchpad.exhaust``), and DRAM line reads
        (``dram.corrupt``, with `ecc` selecting the SEC-DED model).

        Attaching a plan also arms the device-side CompCpy checksum
        snapshot taken at offload finalisation."""
        self.fault_plan = plan
        self.translation_table.fault_plan = plan
        self.scratchpad.fault_plan = plan
        self.memory.attach_fault_plan(plan, ecc=ecc)

    # -- software-visible helpers (driver side) ----------------------------------------

    @property
    def _channel_stride(self) -> int:
        """With N-channel cacheline interleaving, only every Nth line of the
        shared MMIO page routes to this device, so the logical registers are
        strided by channel (Sec. V-D: per-DIMM configuration)."""
        return max(1, self.mapping.channels)

    @property
    def mmio_register_address(self) -> int:
        return self.config.mmio_base + CACHELINE_SIZE * self.channel

    @property
    def mmio_status_address(self) -> int:
        return self.config.mmio_base + CACHELINE_SIZE * self.channel

    def pending_list_address(self, chunk: int) -> int:
        """MMIO address of pending-page-list chunk `chunk` for this device."""
        stride = self._channel_stride
        return self.config.mmio_base + CACHELINE_SIZE * (stride * (1 + chunk) + self.channel)

    def create_offload(self, kind: UlpKind, context: object) -> Offload:
        """Stage an offload's context on the device.

        Models the burst of MMIO config writes the software performs before
        registering pages; the write count is charged to `stats.mmio_writes`
        according to the DSA's declared context footprint.

        With ``config.max_inflight_offloads`` set, a full offload table
        refuses new work with :class:`DeviceBusyError` — the device-level
        backpressure signal the session's resilience guard turns into a
        CPU onload.
        """
        limit = self.config.max_inflight_offloads
        if limit is not None and len(self._offloads) >= limit:
            self.stats.busy_rejections += 1
            raise DeviceBusyError(
                "SmartDIMM offload queue full: %d in flight >= limit %d"
                % (len(self._offloads), limit),
                inflight=len(self._offloads), limit=limit,
            )
        offload = Offload(
            offload_id=self._next_offload_id,
            kind=kind,
            context=context,
            sbuf_pages=[],
            dbuf_pages=[],
        )
        self._next_offload_id += 1
        self._offloads[offload.offload_id] = offload
        context_bytes = self.dsas[kind].context_size_bytes(context)
        self.stats.mmio_writes += (context_bytes + CACHELINE_SIZE - 1) // CACHELINE_SIZE
        return offload

    def offload(self, offload_id: int) -> Offload:
        """The live offload record for `offload_id`."""
        return self._offloads[offload_id]

    # -- DDR command interface -------------------------------------------------------------

    def handle_command(self, command: Command) -> CasResult:
        """Process one DDR command through the Fig. 6 arbiter: ACT/PRE,
        the MMIO page's rdCAS/wrCAS, CMP_RDCAS and SPAD_WB.  Every other
        data CAS arrives as a burst (:meth:`read_line_run`,
        :meth:`write_line_run`), so one sent as a ``Command`` raises
        RuntimeError, a controller bug."""
        if command.kind is CommandType.ACT:
            self.bank_table.activate(command.bank_group, command.bank, command.row)
            return CasResult()
        if command.kind is CommandType.PRE:
            self.bank_table.precharge(command.bank_group, command.bank)
            return CasResult()
        address = self._regenerate_address(command)
        if self._in_mmio(address):
            return self._handle_mmio(command, address)
        entry = self.translation_table.lookup(address >> 12)
        if command.kind is CommandType.CMP_RDCAS:
            return self._compute_read(command, address, entry)
        if command.kind is CommandType.SPAD_WB:
            return self._scratchpad_writeback(command, address, entry)
        raise RuntimeError(
            "%s Command outside the MMIO page at 0x%x" % (command.kind.value, address)
        )

    # -- Sec. IV-E command extensions --------------------------------------------------

    def _compute_read(self, command: Command, address: int, entry) -> CasResult:
        """CMP_RDCAS: DRAM -> DSA only; nothing crosses the data bus."""
        if entry is None or not entry.is_source:
            # A compute read of an unregistered page is a controller bug.
            raise RuntimeError("CMP_RDCAS to unregistered page 0x%x" % address)
        data = self.memory.read_line(address)
        self.stats.compute_reads += 1
        self._feed_dsa_run(address, 1, data, command.cycle, 0, OffloadTrigger.SOURCE_READ)
        return CasResult()

    def _scratchpad_writeback(self, command: Command, address: int, entry) -> CasResult:
        """SPAD_WB: retire one staged line to DRAM, buffer-device internal."""
        if entry is None or entry.is_source:
            raise RuntimeError("SPAD_WB to non-destination page 0x%x" % address)
        index = entry.target_offset
        line = (address & (PAGE_SIZE - 1)) // CACHELINE_SIZE
        state = self.scratchpad.line_state(index, line)
        if state is LineState.RECYCLED:
            return CasResult()  # already home: idempotent
        if state is LineState.VALID and self.scratchpad.is_ready(index, line, command.cycle):
            data, page_free = self.scratchpad.recycle_line_run(index, line, 1, forced=True)
            self.memory.write_line(address, data)
            self.stats.spad_writebacks += 1
            if page_free:
                self._page_freed(entry.page_number, index)
            return CasResult()
        # Computation pending: controller retries, as with S13.
        self.stats.alerts += 1
        return CasResult(alert=True)

    # -- address regeneration (Bank Table + Addr Remap, Sec. IV-C) ---------------------------

    def _regenerate_address(self, command: Command) -> int:
        row = self.bank_table.active_row(command.bank_group, command.bank)
        coordinate = DramCoordinate(
            channel=self.channel,
            bank_group=command.bank_group,
            bank=command.bank,
            row=row,
            column=command.column,
        )
        address = self.mapping.encode(coordinate)
        self.stats.address_regenerations += 1
        if address != command.address:
            raise RuntimeError(
                "address regeneration mismatch: got 0x%x, controller sent 0x%x"
                % (address, command.address)
            )
        return address

    def _in_mmio(self, address: int) -> bool:
        return self.config.mmio_base <= address < self.config.mmio_base + PAGE_SIZE

    # -- MMIO config space ----------------------------------------------------------------------

    def _handle_mmio(self, command: Command, address: int) -> CasResult:
        # Logical register index: with interleaving, this device only sees
        # every Nth line of the MMIO page, so divide the stride back out.
        offset = (
            (address - self.config.mmio_base)
            // CACHELINE_SIZE
            // self._channel_stride
            * CACHELINE_SIZE
        )
        if command.kind is CommandType.WRCAS:
            self.stats.mmio_writes += 1
            record = _parse_register_record(command.data)
            self._register_pair(**record)
            return CasResult()
        self.stats.mmio_reads += 1
        if offset == 0:
            status = bytearray(CACHELINE_SIZE)
            status[0:8] = self.scratchpad.free_pages.to_bytes(8, "little")
            status[8:16] = self.scratchpad.used_pages.to_bytes(8, "little")
            pending = self.scratchpad.pending_pages()
            status[16:24] = len(pending).to_bytes(8, "little")
            return CasResult(data=bytes(status))
        chunk = offset // CACHELINE_SIZE - 1
        pending = sorted(self.scratchpad.pending_pages())
        window = pending[8 * chunk : 8 * chunk + 8]
        data = bytearray()
        for page in window:
            data += page.to_bytes(8, "little")
        while len(data) < CACHELINE_SIZE:
            data += _EMPTY_SLOT.to_bytes(8, "little")
        return CasResult(data=bytes(data))

    # -- registration (S17) -------------------------------------------------------------------------

    def _register_pair(
        self,
        offload_id: int,
        sbuf_page: int,
        dbuf_page: int,
        position: int,
        total_pages: int,
        trigger: OffloadTrigger = OffloadTrigger.SOURCE_READ,
    ) -> None:
        offload = self._offloads.get(offload_id)
        if offload is None:
            raise ValueError("MMIO registration for unknown offload %d" % offload_id)
        offload.trigger = trigger
        if offload.state is not OffloadState.REGISTERED and position == 0:
            raise ValueError("offload %d already started" % offload_id)
        # Allocate-then-insert with LIFO rollback: a failure at any step —
        # genuine table-full/exhaustion or an injected fault — unwinds the
        # partial registration so the device holds no orphaned state and
        # Algorithm 2's recovery can simply re-register from scratch.
        undo = []
        try:
            if position == 0:
                offload.config_slot = self.config_memory.allocate(
                    sbuf_page,
                    offload.context,
                    self.dsas[offload.kind].context_size_bytes(offload.context),
                )

                def _undo_config(slot=offload.config_slot):
                    self.config_memory.free(slot)
                    offload.config_slot = -1

                undo.append(_undo_config)
            scratchpad_index = self.scratchpad.allocate(dbuf_page)
            undo.append(lambda: self.scratchpad.free(scratchpad_index))
            self.translation_table.insert(
                TranslationEntry(
                    page_number=sbuf_page,
                    is_config=True,
                    target_offset=offload.config_slot,
                    linked_pages=(dbuf_page,),
                    is_source=True,
                )
            )
            undo.append(lambda: self.translation_table.remove(sbuf_page))
            self.translation_table.insert(
                TranslationEntry(
                    page_number=dbuf_page,
                    is_config=False,
                    target_offset=scratchpad_index,
                    linked_pages=(sbuf_page,),
                    is_source=False,
                )
            )
        except Exception:
            self.stats.registrations_rolled_back += 1
            while undo:
                undo.pop()()
            raise
        # Committed: nothing below can fail.
        offload.sbuf_pages.append(sbuf_page)
        offload.dbuf_pages.append(dbuf_page)
        offload.scratchpad_indices.append(scratchpad_index)
        if self.mapping.channels > 1:
            # Fine-grain interleaving (Sec. V-D): this DIMM owns only the
            # lines of the page that route to its channel; foreign lines
            # are pre-marked RECYCLED so page accounting stays exact.
            if offload.owned_lines is None:
                offload.owned_lines = set()
            for line in range(LINES_PER_PAGE):
                address = dbuf_page * PAGE_SIZE + line * CACHELINE_SIZE
                if self.mapping.decode(address).channel == self.channel:
                    offload.owned_lines.add(offload.global_line(position, line))
                else:
                    self.scratchpad.mark_foreign_recycled(scratchpad_index, line)
        self._page_binding[sbuf_page] = (offload, position, True)
        self._page_binding[dbuf_page] = (offload, position, False)
        self.stats.pages_registered += 2
        if position == total_pages - 1:
            offload.state = OffloadState.IN_PROGRESS
            self.stats.offloads_registered += 1
            self.dsas[offload.kind].begin(offload, ScratchpadWriter(self.scratchpad, offload))

    # -- DSA line readiness and finalisation ----------------------------------------------------------

    def _set_line_ready(self, offload: Offload, global_line: int, cycle: int) -> None:
        page_position, line = divmod(global_line, LINES_PER_PAGE)
        index = offload.scratchpad_indices[page_position]
        if self.scratchpad.line_state(index, line) is not LineState.VALID:
            return
        plan = self.fault_plan
        if plan is not None:
            if plan.fires(FaultSite.DSA_WEDGE):
                # Wedge: push readiness past any plausible retry budget so
                # the controller's ALERT_N watchdog trips (DsaWedgedError)
                # and software runs the abort + CPU-onload recovery.
                cycle += int(plan.param(FaultSite.DSA_WEDGE, "wedge_cycles", 1 << 30))
                self.stats.injected_wedges += 1
            elif plan.fires(FaultSite.DSA_ALERT_STORM):
                # Storm: a bounded extra delay — enough to force several
                # ALERT_N retries (S13) but recoverable within the budget.
                cycle += int(
                    plan.param(
                        FaultSite.DSA_ALERT_STORM,
                        "extra_cycles",
                        8 * self.config.dsa_line_latency_cycles,
                    )
                )
                self.stats.injected_storms += 1
            if plan.fires(FaultSite.DSA_SDC):
                # Silent data corruption: flip bits inside one 16-byte
                # kernel lane (a GHASH block / match-window slice) of the
                # *result* already staged in the scratchpad.  This runs
                # before finalisation, so the device CRC snapshot includes
                # the corruption — by construction only end-to-end
                # semantic verification (auth-tag recompute, decompress-
                # and-compare) can catch it.
                self._corrupt_lane(plan, index, line)
        self.scratchpad.set_ready_cycle(index, line, cycle)

    def _corrupt_lane(self, plan, index: int, line: int) -> None:
        """Flip 1-3 bits in one 16-byte kernel lane of a scratchpad line."""
        rng = plan.rng(FaultSite.DSA_SDC)
        lane = rng.randrange(CACHELINE_SIZE // 16)
        base = line * CACHELINE_SIZE + lane * 16
        data = self.scratchpad.page(index).data
        for _ in range(1 + rng.randrange(3)):
            bit = rng.randrange(128)
            data[base + bit // 8] ^= 1 << (bit % 8)
        self.stats.injected_sdc += 1

    def _finalize_offload(self, offload: Offload, cycle: int) -> None:
        writer = ScratchpadWriter(self.scratchpad, offload)
        self.dsas[offload.kind].finalize(offload, writer)
        if self.fault_plan is not None:
            # Finalize-deposited output (DEFLATE streams, inflate pages,
            # serde flats) never passed through _set_line_ready: give the
            # dsa.sdc personality the same one-decision-per-line shot at
            # it, *before* the CRC snapshot below, so bad matches also
            # slip past the transport checksum.
            plan = self.fault_plan
            for index in offload.scratchpad_indices:
                page = self.scratchpad.page(index)
                for line in range(LINES_PER_PAGE):
                    if (page.states[line] is LineState.VALID
                            and page.ready_cycles[line] is None
                            and plan.fires(FaultSite.DSA_SDC)):
                        self._corrupt_lane(plan, index, line)
        if self.fault_plan is not None and offload.owned_lines is None:
            # End-to-end integrity snapshot: CRC of the full output image at
            # the moment the DSA is done.  The host compares its read-back
            # against this (CompCpy.verify_destination) — any corruption
            # between scratchpad and USE (DRAM flips, recycle bugs) is
            # caught.  Skipped in multi-channel mode, where no single device
            # sees the whole output.
            crc = 0
            for index in offload.scratchpad_indices:
                crc = payload_checksum(self.scratchpad.page(index).data, crc)
            offload.device_checksum = crc
        finalize_cycle = cycle + self.config.finalize_latency_cycles
        for index in offload.scratchpad_indices:
            page = self.scratchpad.page(index)
            for line in range(LINES_PER_PAGE):
                if page.states[line] is LineState.VALID and page.ready_cycles[line] is None:
                    page.ready_cycles[line] = finalize_cycle
        offload.state = OffloadState.FINALIZED
        offload.finalize_cycle = finalize_cycle
        self.stats.offloads_finalized += 1
        for dbuf_page, index in sorted(self._deferred_releases):
            binding = self._page_binding.get(dbuf_page)
            if binding is not None and binding[0] is offload:
                self._deferred_releases.discard((dbuf_page, index))
                self._release_destination_page(dbuf_page, index)

    # -- data CASes (S6-S13): same-row bursts of any length ------------------------

    def bulk_ok(self, address: int) -> bool:
        """Whether the data CASes at `address` arrive as bursts:
        everywhere but the MMIO page, whose register accesses are
        ``Command`` objects.  Fault plans and RAS engines take bursts too:
        each injection site draws from its own stream, and a burst keeps
        every site's draws per line and in line order."""
        return not self._in_mmio(address)

    def read_line_run(self, address: int, count: int, first_cycle: int,
                      step: int) -> tuple:
        """Serve consecutive rdCAS bursts (S6, S10 and S13; a plain or
        RECYCLED line reads DRAM), stats-identical to the per-command
        arbiter walk.  Returns ``(data, served, alerted, error)``: the run
        stops at the first line that asserts ALERT_N (S13, `alerted`) or
        whose DRAM read raises a :class:`~repro.faults.errors.FaultError`
        (`error`).  Lines before it are served, and on a source page fed
        to the DSA; the stopping issue is counted here as the per-line
        walk counts it (one address regeneration; a plain or RECYCLED
        line's read counted before the DRAM access, a source line's
        after it), and the controller owns the retry loop or the re-raise.
        The run never crosses a page, so one translation lookup covers
        every line.
        """
        stats = self.stats
        entry = self.translation_table.lookup(address >> 12)
        if entry is None or entry.is_source:
            data, error = self.memory.read_lines(address, count)
            served = len(data) >> 6
            issued = served + (error is not None)
            stats.address_regenerations += issued
            if entry is None:
                # A plain rdCAS counts its read before the DRAM access...
                stats.normal_reads += issued
            else:
                # ...a source rdCAS after it, then feeds the DSA.
                stats.normal_reads += served
                self._feed_dsa_run(
                    address, served, data, first_cycle, step, OffloadTrigger.SOURCE_READ
                )
            return data, served, False, error
        index = entry.target_offset
        line = (address & (PAGE_SIZE - 1)) // CACHELINE_SIZE
        page = self.scratchpad.page(index)
        states = page.states
        ready_cycles = page.ready_cycles
        parts = []
        served = 0
        for m in range(count):
            line_m = line + m
            state = states[line_m]
            if state is LineState.RECYCLED:
                stats.normal_reads += 1
                try:
                    parts.append(self.memory.read_line(address + (m << 6)))
                except FaultError as error:
                    stats.address_regenerations += served + 1
                    return b"".join(parts), served, False, error
            elif state is LineState.VALID and (
                ready_cycles[line_m] is None
                or first_cycle + step * m >= ready_cycles[line_m]
            ):
                stats.scratchpad_serves += 1  # S10
                offset = line_m * CACHELINE_SIZE
                parts.append(bytes(page.data[offset : offset + CACHELINE_SIZE]))
            else:
                # S13: the alerting issue still regenerated its address.
                stats.alerts += 1
                stats.address_regenerations += served + 1
                return b"".join(parts), served, True, None
            served += 1
        stats.address_regenerations += served
        return b"".join(parts), served, False, None

    def write_line_run(self, address: int, datas: list, first_cycle: int,
                       step: int) -> None:
        """Absorb consecutive wrCAS bursts (writes never alert): DRAM
        takes plain, source (Compute DMA's write-fed S6) and RECYCLED
        lines, a ready destination line self-recycles (S8/S9) and a
        pending one is ignored (S7)."""
        count = len(datas)
        stats = self.stats
        stats.address_regenerations += count
        entry = self.translation_table.lookup(address >> 12)
        if entry is None:
            stats.normal_writes += count
            self.memory.write(address, b"".join(datas))
            return
        if entry.is_source:
            stats.normal_writes += count
            data = b"".join(datas)
            self.memory.write(address, data)
            self._feed_dsa_run(
                address, count, data, first_cycle, step, OffloadTrigger.SOURCE_WRITE
            )
            return
        index = entry.target_offset
        line = (address & (PAGE_SIZE - 1)) // CACHELINE_SIZE
        scratchpad = self.scratchpad
        page = scratchpad.page(index)
        states = page.states
        ready_cycles = page.ready_cycles
        # Segment the burst into maximal same-branch runs; each segment's
        # bulk operation is state- and stats-identical to the per-line loop,
        # and a page release can only fire on the last line of a recyclable
        # segment (earlier lines leave later VALID segment lines in place).
        m = 0
        while m < count:
            line_m = line + m
            state = states[line_m]
            if state is LineState.RECYCLED:
                # Also reached after a mid-run page release: the held page
                # object reads all-RECYCLED, which lands every remaining
                # line in DRAM exactly like the reference's translation
                # miss would.
                r = m + 1
                while r < count and states[line + r] is LineState.RECYCLED:
                    r += 1
                stats.normal_writes += r - m
                self.memory.write(address + (m << 6), b"".join(datas[m:r]))
                m = r
                continue
            ready = ready_cycles[line_m]
            if state is LineState.VALID and (
                ready is None or first_cycle + step * m >= ready
            ):
                r = m + 1
                while r < count and states[line + r] is LineState.VALID:
                    ready = ready_cycles[line + r]
                    if ready is not None and first_cycle + step * r < ready:
                        break
                    r += 1
                data, page_free = scratchpad.recycle_line_run(index, line_m, r - m)
                self.memory.write(address + (m << 6), data)
                stats.self_recycles += r - m
                if page_free:
                    self._page_freed(entry.page_number, index)
                m = r
                continue
            # S7: premature writeback — the scratchpad still owns the line.
            stats.ignored_writes += 1
            m += 1

    def _feed_dsa_run(
        self,
        address: int,
        count: int,
        data: bytes,
        first_cycle: int,
        step: int,
        trigger: OffloadTrigger,
    ) -> None:
        """Feed a burst's lines of a source page to the DSA (S6): each
        maximal run of lines an in-progress offload with this `trigger` has
        not processed is one ``process_run`` call (a single line is a run of
        one); then each line of the run, in line order, is made ready
        `dsa_line_latency_cycles` after its CAS at ``first_cycle + step *
        m``.  Only a run's last line can complete the offload, which
        finalises at that line's cycle."""
        binding = self._page_binding.get(address >> 12)
        if binding is None:
            return
        offload, position, _ = binding
        if offload.state is not OffloadState.IN_PROGRESS or offload.trigger is not trigger:
            return
        dsa = self.dsas[offload.kind]
        writer = ScratchpadWriter(self.scratchpad, offload)
        processed = offload.processed_lines
        latency = self.config.dsa_line_latency_cycles
        # global_line is linear, so the burst's global indices are consecutive.
        first = offload.global_line(position, (address & (PAGE_SIZE - 1)) >> 6)
        end = first + count
        start = first
        # The burst's already-processed lines cut it into maximal runs.
        for cut in sorted(processed.intersection(range(first, end))) + [end]:
            if start < cut:
                run = data[(start - first) << 6 : (cut - first) << 6]
                dsa.process_run(offload, writer, start, run, cut - start)
                processed.update(range(start, cut))
                self.stats.dsa_lines_processed += cut - start
                for line in range(start, cut):
                    self._set_line_ready(offload, line, first_cycle + step * (line - first) + latency)
                if offload.complete():
                    self._finalize_offload(offload, first_cycle + step * (cut - 1 - first))
                    return
            start = cut + 1

    # -- abort (wedged-DSA recovery) ------------------------------------------------------------------------

    def abort_offload(self, offload_id: int) -> int:
        """Tear down a live offload after an unrecoverable DSA fault.

        Frees every scratchpad page, translation entry, page binding, and
        the config slot the offload still holds, *without* waiting for the
        DSA — this is the software recovery for a wedged accelerator
        (:class:`~repro.faults.errors.DsaWedgedError`): drop the device
        state, then redo the operation on the CPU (the onload path).
        Destination DRAM keeps whatever lines already recycled; the caller
        rewrites it.  Idempotent — aborting an unknown or fully-released
        offload is a no-op.  Returns the number of scratchpad pages freed.
        """
        offload = self._offloads.pop(offload_id, None)
        if offload is None:
            return 0
        freed = 0
        for position, dbuf_page in enumerate(offload.dbuf_pages):
            index = offload.scratchpad_indices[position]
            self._deferred_releases.discard((dbuf_page, index))
            if self._page_binding.pop(dbuf_page, None) is not None:
                self.scratchpad.free(index)
                self.translation_table.remove(dbuf_page)
                self.stats.pages_deregistered += 1
                freed += 1
            sbuf_page = offload.sbuf_pages[position]
            if self._page_binding.pop(sbuf_page, None) is not None:
                self.translation_table.remove(sbuf_page)
                self.stats.pages_deregistered += 1
        if offload.config_slot >= 0:
            self.config_memory.free(offload.config_slot)
            offload.config_slot = -1
        self._freed_dbuf_pages.pop(offload_id, None)
        offload.state = OffloadState.ABORTED
        self.stats.offloads_aborted += 1
        return freed

    # -- deregistration -------------------------------------------------------------------------------------

    def _page_freed(self, dbuf_page: int, scratchpad_index: int) -> None:
        """Every line of a destination page is home: release the page now,
        or once its offload finalises if it has not yet."""
        binding = self._page_binding.get(dbuf_page)
        if binding is not None and binding[0].state is not OffloadState.FINALIZED:
            self._deferred_releases.add((dbuf_page, scratchpad_index))
        else:
            self._release_destination_page(dbuf_page, scratchpad_index)

    def _release_destination_page(self, dbuf_page: int, scratchpad_index: int) -> None:
        """A fully recycled destination page frees its scratchpad page and
        removes its translations; when the whole offload is recycled, the
        source pages and config slot are released too."""
        self.scratchpad.free(scratchpad_index)
        self.translation_table.remove(dbuf_page)
        offload, position, _ = self._page_binding.pop(dbuf_page)
        sbuf_page = offload.sbuf_pages[position]
        self.translation_table.remove(sbuf_page)
        self._page_binding.pop(sbuf_page, None)
        self.stats.pages_deregistered += 2
        freed = self._freed_dbuf_pages.get(offload.offload_id, 0) + 1
        self._freed_dbuf_pages[offload.offload_id] = freed
        if freed == len(offload.dbuf_pages):
            self.config_memory.free(offload.config_slot)
            del self._offloads[offload.offload_id]
            del self._freed_dbuf_pages[offload.offload_id]
