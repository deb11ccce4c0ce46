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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dram.address import AddressMapping, DramCoordinate
from repro.dram.commands import CACHELINE_SIZE, Command, CommandType
from repro.dram.physical_memory import PhysicalMemory
from repro.faults.errors import DsaWedgedError, FaultError


@dataclass(slots=True)
class CasResult:
    """Outcome of a CAS command at the DIMM."""

    data: bytes = b""
    alert: bool = False  # ALERT_N asserted: retry the rdCAS
    ignored: bool = False  # wrCAS dropped (S7: write before compute done)


class PlainDIMM:
    """A regular DIMM: CAS commands go straight to the DRAM devices."""

    def __init__(self, memory: PhysicalMemory):
        self.memory = memory

    def handle_command(self, command: Command) -> CasResult:
        """Serve one DDR command from the DRAM devices."""
        if command.kind is CommandType.RDCAS:
            return CasResult(data=self.memory.read_line(command.address))
        if command.kind is CommandType.WRCAS:
            self.memory.write_line(command.address, command.data)
            return CasResult()
        return CasResult()  # ACT/PRE maintain bank state only

    # -- same-row bursts (MemoryController.read_lines/write_lines_now) ------

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

    The range APIs (:meth:`read_lines`, :meth:`read_lines_fenced`,
    :meth:`write_lines_now`) and the write-queue drain coalesce same-row
    CAS bursts into one open-row check and one turnaround check per run
    whenever the device's ``bulk_ok`` allows it; elsewhere each line is
    its own ``Command``.  The command stream, cycle counts, stats and
    trace are those of issuing every line on its own, the per-line oracle
    of ``tests/micro_oracle.py`` that ``tests/core/test_micro_oracle.py``
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
        result = self._issue_with_alert_retry(address, CommandType.RDCAS)
        self.stats.reads += 1
        self.stats.bytes_read += CACHELINE_SIZE
        return result.data

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
        self._check_aligned(address)
        self._write_queue.pop(address, None)
        self._issue_write(address, data)

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
        fence)."""
        timing = self.timing
        cas = timing.cas_cycles
        step = cas + fence
        while count:
            run = min(count, self.mapping.run_length(address))
            coordinate = self.mapping.line_coordinate(address)
            device = self.dimms[coordinate.channel]
            bulk = run > 1 and getattr(device, "bulk_ok", None)
            if not (bulk and device.bulk_ok(address)):
                # Single-line issue (a one-line run, the MMIO page or a
                # device without bursts): read_line minus the forwarding.
                result = self._issue_with_alert_retry(address, CommandType.RDCAS)
                self.stats.reads += 1
                self.stats.bytes_read += CACHELINE_SIZE
                self.cycle += fence
                parts.append(result.data)
                address += CACHELINE_SIZE
                count -= 1
                continue
            direct = type(device) is PlainDIMM
            while run:
                coordinate = self.mapping.line_coordinate(address)
                self._open_row(coordinate, device, direct=direct)
                if self._last_direction not in (None, "read"):
                    self.cycle += timing.turnaround_cycles
                self._last_direction = "read"
                first_cycle = self.cycle + cas
                data, served, alerted, error = device.read_line_run(
                    address, run, first_cycle, step
                )
                issued = served + (alerted or error is not None)
                self.stats.row_hits += issued - 1
                self.cycle += cas * issued + fence * served
                if self.trace is not None:
                    for m in range(issued):
                        self.trace.append(
                            TraceEntry(first_cycle + step * m, "rdCAS",
                                       address + (m << 6))
                        )
                if served:
                    parts.append(data)
                    self.stats.reads += served
                    self.stats.bytes_read += served * CACHELINE_SIZE
                    address += served << 6
                    run -= served
                    count -= served
                if error is not None:
                    # The stopping issue is charged above; the per-line
                    # path raises here, where its ALERT_N loop would start.
                    raise error
                if alerted:
                    # The alerting issue is already charged above; continue
                    # the backoff/reissue loop for that line.
                    result = self._alert_retry_continue(address, CommandType.RDCAS)
                    self.stats.reads += 1
                    self.stats.bytes_read += CACHELINE_SIZE
                    self.cycle += fence
                    parts.append(result.data)
                    address += CACHELINE_SIZE
                    run -= 1
                    count -= 1

    def write_lines_now(self, address: int, datas: list) -> None:
        """Flush writebacks for consecutive lines, bypassing the queue
        (== a write_line_now loop: queued copies are removed first)."""
        self._check_aligned(address)
        queue = self._write_queue
        for i in range(len(datas)):
            queue.pop(address + (i << 6), None)
        self._write_run(address, datas)

    def _write_run(self, address: int, datas: list) -> None:
        """Issue consecutive wrCAS bursts, coalescing same-row runs."""
        timing = self.timing
        cas = timing.cas_cycles
        i = 0
        n = len(datas)
        while i < n:
            line_address = address + (i << 6)
            run = min(n - i, self.mapping.run_length(line_address))
            coordinate = self.mapping.line_coordinate(line_address)
            device = self.dimms[coordinate.channel]
            bulk = run > 1 and getattr(device, "bulk_ok", None)
            if not (bulk and device.bulk_ok(line_address)):
                self._issue_write(line_address, datas[i])
                i += 1
                continue
            self._open_row(coordinate, device, direct=type(device) is PlainDIMM)
            if self._last_direction not in (None, "write"):
                self.cycle += timing.turnaround_cycles
            self._last_direction = "write"
            first_cycle = self.cycle + cas
            self.stats.row_hits += run - 1
            self.cycle += cas * run
            if self.trace is not None:
                for m in range(run):
                    self.trace.append(
                        TraceEntry(first_cycle + cas * m, "wrCAS",
                                   line_address + (m << 6))
                    )
            device.write_line_run(line_address, datas[i:i + run], first_cycle, cas)
            self.stats.writes += run
            self.stats.bytes_written += run * CACHELINE_SIZE
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
        self._issue_with_alert_retry(address, CommandType.SPAD_WB)
        self.stats.scratchpad_writebacks += 1
        return True

    # -- internals -------------------------------------------------------------

    def _issue_with_alert_retry(self, address: int, kind: CommandType) -> CasResult:
        """Issue a CAS, reissuing with exponential backoff on ALERT_N.

        Shared by the rdCAS (S13) and SPAD_WB retry paths: one issue, then
        :meth:`_alert_retry_continue`'s backoff loop if it alerted.
        """
        result = self._issue_cas(address, kind, b"")
        if result.alert:
            result = self._alert_retry_continue(address, kind)
        return result

    def _alert_retry_continue(self, address: int, kind: CommandType) -> CasResult:
        """The ALERT_N retry loop after an issue that alerted (already
        charged by the caller): count the alert, back off, reissue — until
        the line serves or the DSA wedges.

        Backoff doubles per retry up to ``timing.alert_backoff_cap``; when
        ``timing.max_alert_retries`` reissues all come back asserted, the
        DSA is treated as wedged (the model's watchdog timeout) and a
        :class:`~repro.faults.errors.DsaWedgedError` carrying the address,
        retry count, and backoff cycles consumed is raised.
        """
        retries = 0
        backoff = 0
        while True:
            self.stats.alerts += 1
            retries += 1
            if retries > self.timing.max_alert_retries:
                self.stats.wedges += 1
                raise DsaWedgedError(
                    "%s retry limit (%d) exceeded at 0x%x; DSA wedged"
                    % (kind.value, self.timing.max_alert_retries, address),
                    site=kind.value, address=address, retries=retries - 1,
                    backoff_cycles=backoff,
                )
            # Exponential backoff: a stalled computation should not keep the
            # channel busy with retry traffic.
            step = self.timing.alert_retry_cycles * min(
                1 << (retries - 1), self.timing.alert_backoff_cap
            )
            self.cycle += step
            backoff += step
            self.stats.alert_backoff_cycles += step
            result = self._issue_cas(address, kind, b"")
            if not result.alert:
                return result

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

    def _issue_write(self, address: int, data: bytes) -> None:
        result = self._issue_cas(address, CommandType.WRCAS, data)
        self.stats.writes += 1
        self.stats.bytes_written += CACHELINE_SIZE
        if result.ignored:
            # S7: the DIMM dropped a premature writeback; nothing to do —
            # the scratchpad still owns the line.
            pass

    def _issue_cas(self, address: int, kind: CommandType, data: bytes) -> CasResult:
        coordinate = self.mapping.line_coordinate(address)
        device = self.dimms[coordinate.channel]
        if type(device) is PlainDIMM and kind in (CommandType.RDCAS, CommandType.WRCAS):
            # Plain-DIMM direct path: no Command objects.  ACT/PRE/CAS at a
            # plain DIMM carry no device-side state (handle_command only
            # touches DRAM for CAS), so the burst goes straight to the
            # backing memory with identical cycle/stats/trace accounting.
            self._open_row(coordinate, device, direct=True)
            if kind is CommandType.RDCAS:
                if self._last_direction not in (None, "read"):
                    self.cycle += self.timing.turnaround_cycles
                self._last_direction = "read"
                self.cycle += self.timing.cas_cycles
                if self.trace is not None:
                    self.trace.append(TraceEntry(self.cycle, "rdCAS", address))
                return CasResult(data=device.memory.read_line(address))
            if self._last_direction not in (None, "write"):
                self.cycle += self.timing.turnaround_cycles
            self._last_direction = "write"
            self.cycle += self.timing.cas_cycles
            if self.trace is not None:
                self.trace.append(TraceEntry(self.cycle, "wrCAS", address))
            if len(data) != CACHELINE_SIZE:
                raise ValueError(
                    "wrCAS data burst must be %d bytes, got %d"
                    % (CACHELINE_SIZE, len(data))
                )
            device.memory.write_line(address, data)
            return CasResult()
        self._open_row(coordinate, device)
        direction = "read" if kind in (CommandType.RDCAS, CommandType.CMP_RDCAS) else "write"
        if self._last_direction not in (None, direction):
            self.cycle += self.timing.turnaround_cycles
        self._last_direction = direction
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

    def _open_row(self, coordinate: DramCoordinate, device, direct: bool = False) -> None:
        key = (coordinate.channel, coordinate.bank_index(self.mapping.banks_per_group))
        open_row = self._open_rows.get(key)
        if open_row == coordinate.row:
            self.stats.row_hits += 1
            return
        self.stats.row_misses += 1
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
