"""Per-line oracles for the micro-simulation's one burst path.

``src`` has one implementation of every micro-tier access: the LLC's
range operations fetch miss runs in chunks (the ordered copy in fenced
bursts), the memory controller sends every data CAS a device accepts as
a same-row burst (a single line, an ALERT_N reissue and a write-queue
drain included), the driver reclaims pending lines in write runs, and
the devices serve the Fig. 6 data states (S6-S13) only in their
``read_line_run``/``write_line_run``.  The oracle is the same stack with
each of those swapped for the per-line walk it must reproduce:

* :class:`PerLineLLC` runs every range operation as its loop over
  ``load``, ``store`` and ``flush_line``, the ordered copy with a
  ``fence`` after each line;
* :class:`PerLineController` runs ``read_lines``, ``read_lines_fenced``
  and ``write_lines_now`` as ``read_line`` (and ``fence``) and
  ``write_line_now`` loops, and drains the write queue one oldest entry
  at a time;
* :class:`PerLineDriver` reclaims a page with one spin check and one
  ``write_line_now`` per pending line;
* :class:`PerCommandSmartDIMM` and :class:`PerCommandDIMM` answer
  ``bulk_ok`` False, so the controller hands them every CAS as a
  ``Command`` through ``handle_command``; the SmartDIMM one walks the
  arbiter's data states one command at a time (the per-command S6-S13
  that ``src`` no longer holds), the plain one reads and writes DRAM.

None of the oracle's loops reach a burst, so a fault in the burst code
shows up as a difference between a stack and its oracle.  The S6 feed of
:class:`PerCommandSmartDIMM` hands each source CAS to the DSA as
``process_run(..., 1)``, a run of one.  Device and oracle share the DSA
code, so the oracle checks how a burst is split into runs, not the DSAs'
arithmetic; ``tests/core/test_tls_dsa.py`` and the page-transform tests
check that against software AES-GCM and zlib.
:func:`oracle_session` builds a :class:`SmartDIMMSession` on the oracle,
and :func:`outcome` and :func:`assert_same` compare a session with it.
"""

import zlib

from repro.cache.llc import LLC
from repro.core.driver import SmartDIMMDriver
from repro.core.dsa.base import OffloadState, OffloadTrigger, ScratchpadWriter
from repro.core.offload_api import SessionConfig, SmartDIMMSession
from repro.core.scratchpad import LineState
from repro.core.smartdimm import SmartDIMM
from repro.dram.commands import CACHELINE_SIZE, PAGE_SIZE, CommandType
from repro.dram.memory_controller import CasResult, MemoryController, PlainDIMM
from repro.dram.ras import RasConfig
from repro.faults.errors import FaultError
from repro.faults.plan import FaultSite, FaultSpec


class PerLineRanges:
    """Range operations as the per-line loops they stand for (mixin for a
    cache with ``load``, ``store``, ``flush_line`` and a controller
    ``mc``)."""

    def load_range(self, address, count):
        address &= ~(CACHELINE_SIZE - 1)
        return b"".join(self.load(address + (i << 6)) for i in range(count))

    def store_range(self, address, data):
        address &= ~(CACHELINE_SIZE - 1)
        for i in range(len(data) // CACHELINE_SIZE):
            self.store(address + (i << 6), bytes(data[i << 6 : (i + 1) << 6]))

    def copy_range(self, src, dst, count):
        src &= ~(CACHELINE_SIZE - 1)
        dst &= ~(CACHELINE_SIZE - 1)
        for i in range(count):
            self.store(dst + (i << 6), self.load(src + (i << 6)))

    def copy_range_ordered(self, src, dst, count):
        src &= ~(CACHELINE_SIZE - 1)
        dst &= ~(CACHELINE_SIZE - 1)
        for i in range(count):
            self.store(dst + (i << 6), self.load(src + (i << 6)))
            self.mc.fence()  # membar between 64-byte segments

    def flush_range(self, address, length):
        if length <= 0:
            return 0  # an empty range flushes nothing, aligned or not
        start = address & ~(CACHELINE_SIZE - 1)
        return sum(
            self.flush_line(line_address)
            for line_address in range(start, address + length, CACHELINE_SIZE)
        )


class PerLineLLC(PerLineRanges, LLC):
    """The LLC with its range operations run line by line."""


class PerLineController(MemoryController):
    """The controller with its range operations and write-queue drain run
    line by line."""

    def read_lines(self, address, count):
        parts = []
        for i in range(count):
            try:
                parts.append(self.read_line(address + (i << 6)))
            except FaultError as error:
                return b"".join(parts), error
        return b"".join(parts), None

    def read_lines_fenced(self, address, count):
        parts = []
        for i in range(count):
            try:
                parts.append(self.read_line(address + (i << 6)))
            except FaultError as error:
                return b"".join(parts), error
            self.fence()
        return b"".join(parts), None

    def write_lines_now(self, address, datas):
        for i, data in enumerate(datas):
            self.write_line_now(address + (i << 6), data)

    def _drain_writes(self, target):
        queue = self._write_queue
        while len(queue) > target:
            address = next(iter(queue))
            self._write_run(address, [queue.pop(address)])


class PerLineDriver(SmartDIMMDriver):
    """The driver with its page reclaim run line by line."""

    def reclaim_page(self, page_number):
        binding = self.device._page_binding.get(page_number)
        if binding is None:
            return 0
        offload, position, is_source = binding
        if is_source:
            return self.reclaim_page(offload.dbuf_pages[position])
        index = offload.scratchpad_indices[position]
        recycled = 0
        for line in list(self.device.scratchpad.pending_lines(index)):
            address = page_number * PAGE_SIZE + line * CACHELINE_SIZE
            ready = self.device.scratchpad.page(index).ready_cycles[line]
            if ready is not None and self.mc.cycle < ready:
                self.mc.cycle = ready  # CPU spins until the DSA catches up
            self.mc.write_line_now(address, bytes(CACHELINE_SIZE))
            recycled += 1
        return recycled


class PerCommandDIMM(PlainDIMM):
    """A plain DIMM that takes no bursts: every CAS is one ``Command``."""

    def bulk_ok(self, address):
        return False

    def handle_command(self, command):
        """Serve one DDR command from the DRAM devices."""
        if command.kind is CommandType.RDCAS:
            return CasResult(data=self.memory.read_line(command.address))
        if command.kind is CommandType.WRCAS:
            self.memory.write_line(command.address, command.data)
        return CasResult()  # ACT/PRE maintain bank state only


class PerCommandSmartDIMM(SmartDIMM):
    """A SmartDIMM that takes no bursts: every CAS is one ``Command``, and
    a data CAS outside the MMIO page walks the Fig. 6 data states one
    command at a time (S6-S13), which ``read_line_run`` and
    ``write_line_run`` must reproduce for runs of every length."""

    def bulk_ok(self, address):
        return False

    def handle_command(self, command):
        if command.kind not in (CommandType.RDCAS, CommandType.WRCAS) or (
                self._in_mmio(command.address)):
            return super().handle_command(command)
        address = self._regenerate_address(command)
        entry = self.translation_table.lookup(address >> 12)
        if entry is None:
            return self._plain_access(command, address)
        if entry.is_source:
            return self._source_access(command, address)
        return self._destination_access(command, address, entry)

    def _plain_access(self, command, address):
        if command.kind is CommandType.RDCAS:
            self.stats.normal_reads += 1
            return CasResult(data=self.memory.read_line(address))
        self.stats.normal_writes += 1
        self.memory.write_line(address, command.data)
        return CasResult()

    def _source_access(self, command, address):
        """S6: a source line goes to DRAM and, on its trigger, to the DSA."""
        if command.kind is CommandType.WRCAS:
            self.stats.normal_writes += 1
            self.memory.write_line(address, command.data)
            # Compute DMA (Sec. IV-E): the DSA taps the *write* stream.
            self._maybe_feed_dsa(command, address, command.data,
                                 OffloadTrigger.SOURCE_WRITE)
            return CasResult()
        data = self.memory.read_line(address)
        self.stats.normal_reads += 1
        self._maybe_feed_dsa(command, address, data, OffloadTrigger.SOURCE_READ)
        return CasResult(data=data)

    def _maybe_feed_dsa(self, command, address, data, trigger):
        binding = self._page_binding.get(address >> 12)
        if binding is None:
            return
        offload, position, _ = binding
        if offload.state is not OffloadState.IN_PROGRESS or offload.trigger is not trigger:
            return
        line_in_page = (address & (PAGE_SIZE - 1)) // CACHELINE_SIZE
        global_line = offload.global_line(position, line_in_page)
        if global_line in offload.processed_lines:
            return
        writer = ScratchpadWriter(self.scratchpad, offload)
        self.dsas[offload.kind].process_run(offload, writer, global_line, data, 1)
        offload.processed_lines.add(global_line)
        self.stats.dsa_lines_processed += 1
        self._set_line_ready(
            offload, global_line, command.cycle + self.config.dsa_line_latency_cycles
        )
        if offload.complete():
            self._finalize_offload(offload, command.cycle)

    def _destination_access(self, command, address, entry):
        """S7-S13: a destination line at its scratchpad state."""
        index = entry.target_offset
        line = (address & (PAGE_SIZE - 1)) // CACHELINE_SIZE
        state = self.scratchpad.line_state(index, line)
        if command.kind is CommandType.WRCAS:
            if state is LineState.RECYCLED:
                self.stats.normal_writes += 1
                self.memory.write_line(address, command.data)
                return CasResult()
            if state is LineState.VALID and self.scratchpad.is_ready(index, line, command.cycle):
                data, page_free = self.scratchpad.recycle_line_run(index, line, 1)
                self.memory.write_line(address, data)
                self.stats.self_recycles += 1  # S8/S9
                if page_free:
                    self._page_freed(entry.page_number, index)
                return CasResult()
            # S7: write arrived before the computation finished — ignore it;
            # the scratchpad still owns this line.
            self.stats.ignored_writes += 1
            return CasResult()
        if state is LineState.RECYCLED:
            self.stats.normal_reads += 1
            return CasResult(data=self.memory.read_line(address))
        if state is LineState.VALID and self.scratchpad.is_ready(index, line, command.cycle):
            self.stats.scratchpad_serves += 1  # S10
            offset = line * CACHELINE_SIZE
            page = self.scratchpad.page(index)
            return CasResult(data=bytes(page.data[offset : offset + CACHELINE_SIZE]))
        # S13: computation pending — assert ALERT_N so the controller retries.
        self.stats.alerts += 1
        return CasResult(alert=True)


def oracle_session(config: SessionConfig) -> SmartDIMMSession:
    """A session whose LLC, controller, driver and device take the
    per-line paths.

    The session wires one LLC, one controller, one driver and one device
    into its CompCpy, Compute DMA and direct-offload engine, so the four
    objects change class in place rather than being rebuilt and re-bound;
    no subclass adds state."""
    session = SmartDIMMSession(config)
    session.llc.__class__ = PerLineLLC
    session.mc.__class__ = PerLineController
    session.driver.__class__ = PerLineDriver
    session.device.__class__ = PerCommandSmartDIMM
    return session


def outcome(call):
    """`call`'s result, or the type of the exception it raised, which is
    how a stack and its oracle compare a failing op."""
    try:
        return call()
    except Exception as error:
        return type(error)


def assert_same(oracle, session) -> None:
    """Everything a session and its oracle must agree on after an op."""
    for name, observe in _OBSERVED:
        assert observe(session) == observe(oracle), name


def _memory_crcs(session):
    return {page: zlib.crc32(data) for page, data in session.memory._pages.items()}


def _report(owner):
    return owner.report() if owner is not None else None


_OBSERVED = (
    ("controller stats", lambda s: s.mc.stats),
    ("cycle", lambda s: s.mc.cycle),
    ("trace", lambda s: s.mc.trace),
    ("write queue", lambda s: list(s.mc._write_queue.items())),
    ("cache stats", lambda s: s.llc.stats),
    ("resident lines", lambda s: s.llc.resident_lines),
    ("device stats", lambda s: s.device.stats),
    ("self-recycled lines", lambda s: s.device.scratchpad.self_recycled_lines),
    ("CompCpy stats", lambda s: s.compcpy.stats),
    ("resilience stats", lambda s: s.resilience_stats),
    ("plan report", lambda s: _report(s.config.fault_plan)),
    ("RAS report", lambda s: _report(s.ras)),
    ("ECC stats", lambda s: s.memory.ecc_stats),
    ("DRAM contents", _memory_crcs),
)

#: One fault plan per injection site the micro path serves in bursts.
PLANS = {
    "wedge": (FaultSpec(FaultSite.DSA_WEDGE, probability=0.01, skip=150,
                        max_fires=2),),
    "storm": (FaultSpec(FaultSite.DSA_ALERT_STORM, probability=0.05),),
    "corrupt1": (FaultSpec(FaultSite.DRAM_CORRUPT, probability=0.01,
                           params={"bits": 1}),),
    "corrupt2": (FaultSpec(FaultSite.DRAM_CORRUPT, probability=0.005,
                           params={"bits": 2}),),
    "sdc": (FaultSpec(FaultSite.DSA_SDC, probability=0.02),),
    "tt_insert": (FaultSpec(FaultSite.TT_INSERT, probability=0.3),),
    "exhaust": (FaultSpec(FaultSite.SCRATCHPAD_EXHAUST, probability=0.3),),
    "cell_flip": (FaultSpec(FaultSite.DRAM_CELL_FLIP, probability=1.0),),
}

#: Latent flips land often enough to pair up on an at-rest working set.
DENSE_FLIPS = RasConfig(flip_interval_cycles=16)
