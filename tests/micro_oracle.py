"""Per-line oracles for the micro-simulation's one burst path.

``src`` has one implementation of every micro-tier access: the LLC's
range operations fetch miss runs in chunks (the ordered copy in fenced
bursts), the memory controller issues same-row CAS bursts for its range
operations and its write-queue drain, the driver reclaims pending lines
in write runs, and a plain DIMM takes CAS commands without ``Command``
objects.  The oracle is the same stack with each of those swapped for the
per-line walk it must reproduce:

* :class:`PerLineLLC` runs every range operation as its loop over
  ``load``, ``store`` and ``flush_line``, the ordered copy with a
  ``fence`` after each line;
* :class:`PerLineController` runs ``read_lines``, ``read_lines_fenced``
  and ``write_lines_now`` as ``read_line`` (and ``fence``) and
  ``write_line_now`` loops, and drains the write queue one oldest entry
  at a time;
* :class:`PerLineDriver` reclaims a page with one spin check and one
  ``write_line_now`` per pending line;
* :class:`PerCommandDIMM` answers ``bulk_ok`` False, and since its type
  is not ``PlainDIMM`` the controller hands it every CAS as a
  ``Command`` through ``handle_command``.

None of the oracle's loops reach a burst, so a fault in the burst code
shows up as a difference between a stack and its oracle.
:func:`oracle_session` builds a :class:`SmartDIMMSession` on the oracle,
and :func:`outcome` and :func:`assert_same` compare a session with it.
"""

import zlib

from repro.cache.llc import LLC
from repro.core.driver import SmartDIMMDriver
from repro.core.offload_api import SessionConfig, SmartDIMMSession
from repro.dram.commands import CACHELINE_SIZE, PAGE_SIZE
from repro.dram.memory_controller import MemoryController, PlainDIMM
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
            self._issue_write(address, queue.pop(address))


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


def oracle_session(config: SessionConfig) -> SmartDIMMSession:
    """A session whose LLC, controller and driver take the per-line paths.

    The session wires one LLC, one controller and one driver into its
    CompCpy, Compute DMA and direct-offload engine, so the three objects
    change class in place rather than being rebuilt and re-bound; no
    subclass adds state."""
    session = SmartDIMMSession(config)
    session.llc.__class__ = PerLineLLC
    session.mc.__class__ = PerLineController
    session.driver.__class__ = PerLineDriver
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
