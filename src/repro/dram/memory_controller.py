"""Command-level DDR memory controller.

The controller is the clock master of the micro-simulation: each command it
issues advances a cycle counter by calibrated amounts, and the resulting
(cycle, command, address) stream is what the SmartDIMM buffer device — or a
plain DIMM — consumes.

Behaviours the SmartDIMM offload model depends on (Sec. IV-D):

* **Open-page policy with per-bank row tracking.**  ACT/PRE commands keep
  the DIMM-side bank table (Fig. 5) in sync with reality.
* **Write batching.**  Stores buffer in a write queue and drain lazily; this
  is one source of the >1 µs slack between the first sbuf rdCAS and the
  first dbuf wrCAS that lets the DSA run ahead of consumption.
* **Read priority with store forwarding.**  Reads bypass queued writes but
  must observe them.
* **ALERT_N retry.**  When the DIMM asserts ALERT_N on a rdCAS (S13 in
  Fig. 6: computation not yet finished), the controller waits and reissues.

Every rdCAS/wrCAS that a device's ``bulk_ok`` accepts goes out as a
same-row burst through its ``read_line_run``/``write_line_run``, a single
line as a burst of one; only ACT/PRE, the MMIO page, the Sec. IV-E
commands and devices that decline bursts take the ``Command`` path
(:meth:`MemoryController._issue_cas` -> ``handle_command``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.address import AddressMapping, DramCoordinate
from repro.dram.commands import CACHELINE_SIZE, Command, CommandType
from repro.dram.physical_memory import PhysicalMemory
from repro.faults.errors import DsaWedgedError, FaultError


@dataclass(slots=True)
class CasResult:
    """Outcome of a CAS command at the DIMM."""

    data: bytes = b""
    alert: bool = False  # ALERT_N asserted: retry the rdCAS


class PlainDIMM:
    """A regular DIMM: CAS bursts go straight to the DRAM devices.

    It keeps no bank state, so the controller sends it no ``Command``:
    every rdCAS/wrCAS, a single line included, arrives as a same-row
    burst."""

    def __init__(self, memory: PhysicalMemory):
        self.memory = memory

    def bulk_ok(self, address: int) -> bool:
        """A plain DIMM can always serve a same-row CAS burst."""
        return True

    def read_line_run(self, address: int, count: int, first_cycle: int,
                      step: int) -> tuple:
        """Serve up to `count` consecutive rdCAS bursts; never alerts.
        Returns ``(data, served, False, error)``: the run stops at the
        first line whose DRAM read raises (`error`, e.g. a RAS poison),
        whose issue the controller charges before re-raising."""
        data, error = self.memory.read_lines(address, count)
        return data, len(data) >> 6, False, error

    def write_line_run(self, address: int, datas: list, first_cycle: int,
                       step: int) -> None:
        """Absorb consecutive wrCAS bursts into the DRAM devices."""
        self.memory.write(address, b"".join(datas))


@dataclass
class TimingParams:
    """Controller-cycle costs (DDR4-3200-class defaults, coarse)."""

    activate_cycles: int = 22  # tRCD
    precharge_cycles: int = 22  # tRP
    cas_cycles: int = 4  # channel occupancy of one 64-byte burst
    turnaround_cycles: int = 12  # read<->write bus turnaround
    fence_cycles: int = 8  # serialisation cost of a memory barrier
    command_only_cycles: int = 1  # CMP_RDCAS / SPAD_WB: no data burst
    alert_retry_cycles: int = 64  # back-off before reissuing after ALERT_N
    max_alert_retries: int = 64  # watchdog: retries before DsaWedgedError
    alert_backoff_cap: int = 64  # exponential backoff multiplier ceiling
    cycle_time_ns: float = 0.625  # 1.6 GHz controller clock
    # Bank-level parallelism: after an ACT, the bank is busy for tRAS-class
    # time; a CAS to a *different*, already-open bank can proceed without
    # waiting, but hammering one bank serialises on its recovery window.
    bank_busy_cycles: int = 34  # ~tRAS at DDR4-3200 in controller cycles


@dataclass
class ControllerStats:
    reads: int = 0
    writes: int = 0
    activates: int = 0
    precharges: int = 0
    row_hits: int = 0
    row_misses: int = 0
    alerts: int = 0
    alert_backoff_cycles: int = 0  # cycles burned in exponential backoff
    wedges: int = 0  # retry budgets drained (DsaWedgedError raised)
    forwarded_reads: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    compute_reads: int = 0  # Sec. IV-E CMP_RDCAS commands (no data burst)
    scratchpad_writebacks: int = 0  # Sec. IV-E SPAD_WB commands
    bank_conflicts: int = 0  # ACT delayed by the bank's recovery window

    @property
    def data_bytes(self) -> int:
        return self.bytes_read + self.bytes_written


@dataclass(slots=True)
class TraceEntry:
    cycle: int
    kind: str  # "rdCAS" or "wrCAS"
    address: int


class MemoryController:
    """Schedules line-granular reads/writes onto per-channel DIMM devices.

    Every data access, from :meth:`read_line` and :meth:`write_line_now`
    to the range APIs (:meth:`read_lines`, :meth:`read_lines_fenced`,
    :meth:`write_lines_now`) and the write-queue drain, issues same-row
    CAS bursts with one open-row check and one turnaround check per run
    whenever the device's ``bulk_ok`` allows it, whatever the run's
    length; a line it declines (the MMIO page) is one ``Command``.  The
    command stream, cycle counts, stats and trace are those of issuing
    every line on its own as a ``Command``, the per-line oracle of
    ``tests/micro_oracle.py`` that ``tests/core/test_micro_oracle.py``
    checks them against.
    """

    WRITE_QUEUE_HIGH_WATERMARK = 48
    WRITE_QUEUE_DRAIN_TO = 16

    def __init__(
        self,
        mapping: AddressMapping,
        dimms: dict,
        timing: TimingParams = None,
        trace: bool = False,
    ):
        self.mapping = mapping
        self.dimms = dict(dimms)
        missing = set(range(mapping.channels)) - set(self.dimms)
        if missing:
            raise ValueError("no DIMM bound to channels %s" % sorted(missing))
        self.timing = timing or TimingParams()
        self.cycle = 0
        self.stats = ControllerStats()
        self.trace = [] if trace else None
        self._open_rows = {}  # (channel, flat_bank) -> row
        self._bank_busy_until = {}  # (channel, flat_bank) -> cycle
        self._write_queue = {}  # address -> data, insertion ordered
        self._last_direction = None  # "read" | "write"

    # -- public line interface ------------------------------------------------

    def read_line(self, address: int) -> bytes:
        """Read one cacheline, observing queued writes."""
        self._check_aligned(address)
        if address in self._write_queue:
            # Store-to-load forwarding: the line never travels to DRAM.
            self.stats.forwarded_reads += 1
            return self._write_queue[address]
        parts = []
        self._read_span(address, 1, parts)
        return parts[0]

    def write_line(self, address: int, data: bytes) -> None:
        """Queue one cacheline write; drains lazily."""
        self._check_aligned(address)
        if len(data) != CACHELINE_SIZE:
            raise ValueError("write must be one %d-byte line" % CACHELINE_SIZE)
        self._write_queue[address] = bytes(data)
        if len(self._write_queue) >= self.WRITE_QUEUE_HIGH_WATERMARK:
            self._drain_writes(target=self.WRITE_QUEUE_DRAIN_TO)

    def fence(self) -> None:
        """Memory barrier: drain all queued writes (CompCpy's membar).

        Even with an empty queue the barrier serialises the pipeline, so it
        always costs `fence_cycles` — the ordering tax of Algorithm 2's
        per-64-byte membar path.
        """
        self.cycle += self.timing.fence_cycles
        self._drain_writes(target=0)

    def write_headroom(self) -> int:
        """Writes the queue takes before one triggers a drain (never
        negative: the queue drains whenever it reaches the watermark)."""
        return self.WRITE_QUEUE_HIGH_WATERMARK - 1 - len(self._write_queue)

    def write_line_now(self, address: int, data: bytes) -> None:
        """Write bypassing the queue (used for explicit flush writebacks)."""
        self._write_now(address, [data])

    # -- range line interface (same-row bursts; equivalent to per-line loops) --

    def read_lines(self, address: int, count: int) -> tuple:
        """Read up to `count` consecutive cachelines (== a read_line loop).

        Queued writes are forwarded per line exactly as :meth:`read_line`
        does; the non-forwarded spans between them are issued as same-row
        CAS bursts through the DIMM's ``read_line_run``.  Returns
        ``(data, error)``: the read stops at the first line whose issue
        raises a :class:`~repro.faults.errors.FaultError` (a poisoned
        line, or a wedge out of the ALERT_N loop), with that line's issue
        charged; `data` holds the lines before it and `error` is the
        exception, for the caller to raise once it has charged its own
        access.  `error` is None when every line was read.
        """
        self._check_aligned(address)
        parts = []
        queue = self._write_queue
        i = 0
        try:
            while i < count:
                line_address = address + (i << 6)
                queued = queue.get(line_address)
                if queued is not None:
                    # Store-to-load forwarding, same as read_line.
                    self.stats.forwarded_reads += 1
                    parts.append(queued)
                    i += 1
                    continue
                j = i + 1
                while j < count and (address + (j << 6)) not in queue:
                    j += 1
                self._read_span(line_address, j - i, parts)
                i = j
        except FaultError as error:
            return b"".join(parts), error
        return b"".join(parts), None

    def read_lines_fenced(self, address: int, count: int) -> tuple:
        """Read up to `count` consecutive cachelines with a memory barrier
        after each (== a ``read_line(line); fence()`` loop), returning
        ``(data, error)`` as :meth:`read_lines` does.

        Only the first read can be forwarded: its fence drains the write
        queue and nothing refills it, so the rest go out as fenced same-row
        bursts, with the empty queue's fence (`fence_cycles`) after each
        line.  The m-th rdCAS of a burst, and the m-th line's DSA readiness
        on a source page, are stamped at ``first_cycle + (cas_cycles +
        fence_cycles) * m``, and an offload the burst completes finalises
        at its last line's cycle.  A read that raises is charged its issue
        but no fence; an alerted read gets its fence after its ALERT_N
        retry loop.
        """
        self._check_aligned(address)
        parts = []
        try:
            if self._write_queue and count:
                parts.append(self.read_line(address))
                self.fence()
                address += CACHELINE_SIZE
                count -= 1
            self._read_span(address, count, parts, self.timing.fence_cycles)
        except FaultError as error:
            return b"".join(parts), error
        return b"".join(parts), None

    def _read_span(self, address: int, count: int, parts: list,
                   fence: int = 0) -> None:
        """Issue reads for `count` lines known to miss the write queue,
        each followed by `fence` cycles of barrier (an empty queue's
        fence).

        A line the device's ``bulk_ok`` accepts starts a same-row burst
        through its ``read_line_run``, whatever the run's length; any
        other line (the MMIO page, a device that takes no bursts) is one
        rdCAS ``Command``.  A line that asserts ALERT_N (S13) is charged,
        and after :meth:`_back_off`'s wait this loop reissues it the same
        way (a burst from that line on, or one ``Command``) until it
        serves or the DSA wedges.
        """
        timing = self.timing
        stats = self.stats
        cas = timing.cas_cycles
        step = cas + fence
        retries = waited = 0  # ALERT_N state of the line at `address`
        while count:
            coordinate = self.mapping.line_coordinate(address)
            device = self.dimms[coordinate.channel]
            if device.bulk_ok(address):
                self._open_row(coordinate, device)
                self._turn("read")
                first_cycle = self.cycle + cas
                data, served, alerted, error = device.read_line_run(
                    address, min(count, self.mapping.run_length(address)),
                    first_cycle, step,
                )
                issued = served + (alerted or error is not None)
                stats.row_hits += issued - 1
                self.cycle += cas * issued
                if self.trace is not None:
                    for m in range(issued):
                        self.trace.append(
                            TraceEntry(first_cycle + step * m, "rdCAS",
                                       address + (m << 6))
                        )
            else:
                result = self._issue_cas(address, CommandType.RDCAS, b"")
                data, alerted, error = result.data, result.alert, None
                served = 0 if alerted else 1
            self.cycle += fence * served
            if served:
                parts.append(data)
                stats.reads += served
                stats.bytes_read += served * CACHELINE_SIZE
                address += served << 6
                count -= served
                retries = waited = 0
            if error is not None:
                # The stopping issue is charged above; the per-line path
                # raises here, where its ALERT_N loop would start.
                raise error
            if alerted:
                retries += 1
                waited = self._back_off(CommandType.RDCAS, address, retries, waited)

    def write_lines_now(self, address: int, datas: list) -> None:
        """Flush writebacks for consecutive lines, bypassing the queue
        (== a write_line_now loop: queued copies are removed first)."""
        self._write_now(address, datas)

    def _write_now(self, address: int, datas: list) -> None:
        """Remove the lines' queued copies and issue them.  Raises
        ValueError, before touching the queue or the channel, unless every
        line is one full 64-byte burst."""
        self._check_aligned(address)
        for data in datas:
            if len(data) != CACHELINE_SIZE:
                raise ValueError("write must be one %d-byte line" % CACHELINE_SIZE)
        queue = self._write_queue
        for i in range(len(datas)):
            queue.pop(address + (i << 6), None)
        self._write_run(address, datas)

    def _write_run(self, address: int, datas: list) -> None:
        """Issue consecutive wrCAS bursts: a line the device's ``bulk_ok``
        accepts starts a same-row burst through its ``write_line_run``,
        whatever the run's length; any other line is one wrCAS
        ``Command``."""
        timing = self.timing
        stats = self.stats
        cas = timing.cas_cycles
        i = 0
        n = len(datas)
        while i < n:
            line_address = address + (i << 6)
            coordinate = self.mapping.line_coordinate(line_address)
            device = self.dimms[coordinate.channel]
            if device.bulk_ok(line_address):
                run = min(n - i, self.mapping.run_length(line_address))
                self._open_row(coordinate, device)
                self._turn("write")
                first_cycle = self.cycle + cas
                stats.row_hits += run - 1
                self.cycle += cas * run
                if self.trace is not None:
                    for m in range(run):
                        self.trace.append(
                            TraceEntry(first_cycle + cas * m, "wrCAS",
                                       line_address + (m << 6))
                        )
                device.write_line_run(line_address, datas[i:i + run],
                                      first_cycle, cas)
            else:
                run = 1
                self._issue_cas(line_address, CommandType.WRCAS, datas[i])
            stats.writes += run
            stats.bytes_written += run * CACHELINE_SIZE
            i += run

    # -- Sec. IV-E command extensions (used by DirectOffload, not plain CPUs) ----

    def compute_read_line(self, address: int) -> None:
        """Issue a compute read: the buffer device feeds the line from DRAM
        straight to the DSA; no data burst returns, no cache is polluted."""
        self._check_aligned(address)
        if address in self._write_queue:
            # The freshest copy is still queued; push it home first so the
            # DSA sees current data.
            self.write_line_now(address, self._write_queue[address])
        self._issue_cas(address, CommandType.CMP_RDCAS, b"")
        self.stats.compute_reads += 1

    def scratchpad_writeback_line(self, address: int) -> bool:
        """Tell the buffer device to retire a staged scratchpad line to
        DRAM internally.  Always returns True: the ALERT_N retry loop
        either completes the writeback (backing off while the DSA has not
        finished that line) or raises :class:`DsaWedgedError` — it never
        reports partial failure to the caller."""
        self._check_aligned(address)
        retries = waited = 0
        while self._issue_cas(address, CommandType.SPAD_WB, b"").alert:
            retries += 1
            waited = self._back_off(CommandType.SPAD_WB, address, retries, waited)
        self.stats.scratchpad_writebacks += 1
        return True

    # -- internals -------------------------------------------------------------

    def _back_off(self, kind: CommandType, address: int, retries: int,
                  waited: int) -> int:
        """The ALERT_N backoff, for a data read (in either form) and for
        SPAD_WB alike: count the alert that answered the `retries`-th
        issue of the line at `address`, then wait before its reissue.
        Returns the cycles waited for that line so far (`waited` plus
        this wait).

        The wait doubles per retry up to ``timing.alert_backoff_cap``;
        when ``timing.max_alert_retries`` reissues all come back asserted,
        the DSA is treated as wedged (the model's watchdog timeout) and a
        :class:`~repro.faults.errors.DsaWedgedError` carrying the address,
        retry count, and backoff cycles consumed is raised.
        """
        timing = self.timing
        self.stats.alerts += 1
        if retries > timing.max_alert_retries:
            self.stats.wedges += 1
            raise DsaWedgedError(
                "%s retry limit (%d) exceeded at 0x%x; DSA wedged"
                % (kind.value, timing.max_alert_retries, address),
                site=kind.value, address=address, retries=retries - 1,
                backoff_cycles=waited,
            )
        # Exponential backoff: a stalled computation should not keep the
        # channel busy with retry traffic.
        wait = timing.alert_retry_cycles * min(
            1 << (retries - 1), timing.alert_backoff_cap
        )
        self.cycle += wait
        self.stats.alert_backoff_cycles += wait
        return waited + wait

    @staticmethod
    def _check_aligned(address: int) -> None:
        if address % CACHELINE_SIZE:
            raise ValueError("unaligned line access at 0x%x" % address)

    def _drain_writes(self, target: int) -> None:
        # Pop runs of entries that are consecutive both in insertion order
        # and in address, then issue each run as one same-row burst: the
        # pop order of popping the oldest entry one at a time.
        queue = self._write_queue
        while len(queue) > target:
            items = iter(queue.items())
            address, data = next(items)
            max_pop = min(len(queue) - target, self.mapping.run_length(address))
            datas = [data]
            expected = address + CACHELINE_SIZE
            while len(datas) < max_pop:
                try:
                    next_address, next_data = next(items)
                except StopIteration:
                    break
                if next_address != expected:
                    break
                datas.append(next_data)
                expected += CACHELINE_SIZE
            for i in range(len(datas)):
                del queue[address + (i << 6)]
            self._write_run(address, datas)

    def _issue_cas(self, address: int, kind: CommandType, data: bytes) -> CasResult:
        """Issue one CAS as a ``Command`` through the device's
        ``handle_command``: the MMIO page's rdCAS/wrCAS, CMP_RDCAS,
        SPAD_WB, and the data CASes of a device whose ``bulk_ok``
        declines."""
        coordinate = self.mapping.line_coordinate(address)
        device = self.dimms[coordinate.channel]
        self._open_row(coordinate, device)
        self._turn("read" if kind in (CommandType.RDCAS, CommandType.CMP_RDCAS)
                   else "write")
        # Command-only operations occupy a command slot but no data burst.
        if kind in (CommandType.CMP_RDCAS, CommandType.SPAD_WB):
            self.cycle += self.timing.command_only_cycles
        else:
            self.cycle += self.timing.cas_cycles
        command = Command(
            kind=kind,
            cycle=self.cycle,
            address=address,
            bank_group=coordinate.bank_group,
            bank=coordinate.bank,
            row=coordinate.row,
            column=coordinate.column,
            data=data,
        )
        if self.trace is not None and kind in (CommandType.RDCAS, CommandType.WRCAS):
            self.trace.append(TraceEntry(self.cycle, kind.value, address))
        return device.handle_command(command)

    def _turn(self, direction: str) -> None:
        """Charge the bus turnaround when the data direction changes."""
        if self._last_direction not in (None, direction):
            self.cycle += self.timing.turnaround_cycles
        self._last_direction = direction

    def _open_row(self, coordinate: DramCoordinate, device) -> None:
        """Open the line's row, sending ACT (and PRE) to a device with a
        bank table; a plain DIMM keeps no bank state and gets none."""
        key = (coordinate.channel, coordinate.bank_index(self.mapping.banks_per_group))
        open_row = self._open_rows.get(key)
        if open_row == coordinate.row:
            self.stats.row_hits += 1
            return
        self.stats.row_misses += 1
        direct = type(device) is PlainDIMM
        # Bank-level parallelism: re-opening a bank must respect its
        # recovery window; other banks' activity overlaps freely.
        busy_until = self._bank_busy_until.get(key, 0)
        if self.cycle < busy_until:
            self.stats.bank_conflicts += 1
            self.cycle = busy_until
        if open_row is not None:
            self.cycle += self.timing.precharge_cycles
            self.stats.precharges += 1
            if not direct:
                device.handle_command(
                    Command(
                        kind=CommandType.PRE,
                        cycle=self.cycle,
                        bank_group=coordinate.bank_group,
                        bank=coordinate.bank,
                        row=open_row,
                    )
                )
        self.cycle += self.timing.activate_cycles
        self.stats.activates += 1
        if not direct:
            device.handle_command(
                Command(
                    kind=CommandType.ACT,
                    cycle=self.cycle,
                    bank_group=coordinate.bank_group,
                    bank=coordinate.bank,
                    row=coordinate.row,
                )
            )
        self._open_rows[key] = coordinate.row
        self._bank_busy_until[key] = self.cycle + self.timing.bank_busy_cycles

    # -- convenience ------------------------------------------------------------

    @property
    def time_ns(self) -> float:
        return self.cycle * self.timing.cycle_time_ns

    def memory_bandwidth_bytes(self) -> int:
        """Total data moved over the DDR channels so far."""
        return self.stats.data_bytes
