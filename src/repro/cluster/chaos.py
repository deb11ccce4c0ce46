"""Fleet-level chaos: scheduled fault windows and recovery accounting.

The micro model injects faults *inside* one SmartDIMM; this module injects
them at rack scale, where the unit of failure is a whole node or one memory
channel's DSA:

* ``node_down`` — a server drops out for a window; the injector reroutes
  its assignments to the next live server (deterministically), modelling
  the load balancer's health-check failover.  In-flight requests drain.
* ``channel_wedge`` — one channel's DSA slows by ``dsa_slowdown``x (a
  wedged accelerator that still trickles); a per-channel
  :class:`~repro.faults.health.CircuitBreaker`, fed by measured
  DSA-stage latency ratios, trips OPEN and spills that channel's requests
  to CPU onload until a probation probe sees normal service again.
* ``sdc_storm`` — a server's DSAs silently corrupt results at
  ``sdc_rate`` per op for the window (a glitching kernel lane at fleet
  scale).  End-to-end verification catches each corruption with
  probability ``verify_coverage`` (1.0 models the semantic auth-tag /
  CRC check being on); detections feed the channel's breaker — the
  fleet-level quarantine — while undetected corruptions are counted as
  the escaped-SDC exposure the ras gate keeps at zero.

Every decision is driven by the simulation clock and scheduled windows, so
identically-seeded scenarios produce byte-identical chaos reports.  The
report carries the paper-adjacent resilience metrics: per-fault detection
time and MTTR, fleet availability (capacity-weighted), and goodput inside
vs outside fault windows.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.fleet import Assignment
from repro.faults.health import BreakerState, CircuitBreaker, DsaHealthMonitor
from repro.faults.plan import FaultSite


@dataclass
class FaultWindow:
    """One scheduled fleet fault: what breaks, where, when, for how long."""

    kind: str  # "node_down" | "channel_wedge" | "sdc_storm"
    server: int
    start_s: float
    duration_s: float
    channel: int = None  # channel_wedge only (sdc_storm hits all channels)
    dsa_slowdown: float = 50.0  # channel_wedge only
    sdc_rate: float = 0.05  # sdc_storm only: corruption probability per op
    # Observed outcomes, filled in during the run.
    detected_s: float = None  # first reroute / breaker-open inside the fault
    restored_s: float = None  # service restored (breaker re-close or window end)

    def __post_init__(self):
        if self.kind not in ("node_down", "channel_wedge", "sdc_storm"):
            raise ValueError("unknown fault kind %r" % self.kind)
        if self.kind == "channel_wedge" and self.channel is None:
            raise ValueError("channel_wedge needs a channel index")
        if self.kind == "sdc_storm" and not 0.0 < self.sdc_rate <= 1.0:
            raise ValueError("sdc_storm needs sdc_rate in (0, 1]")
        if not self.dsa_slowdown >= 1.0:
            # A wedge slows a channel; it cannot make it faster.
            raise ValueError("dsa_slowdown must be >= 1")
        if self.duration_s <= 0:
            raise ValueError("fault duration must be positive")

    @property
    def end_s(self) -> float:
        """When the underlying fault clears (repair completes)."""
        return self.start_s + self.duration_s

    @property
    def mttr_s(self):
        """Time from fault onset to restored service (None if never)."""
        if self.restored_s is None:
            return None
        return self.restored_s - self.start_s

    def to_dict(self) -> dict:
        """Deterministic JSON-ready record of the window and its outcome."""
        return {
            "kind": self.kind,
            "server": self.server,
            "channel": self.channel,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "dsa_slowdown": self.dsa_slowdown if self.kind == "channel_wedge" else None,
            "sdc_rate": self.sdc_rate if self.kind == "sdc_storm" else None,
            "detected_s": self.detected_s,
            "restored_s": self.restored_s,
            "mttr_s": self.mttr_s,
        }


def epoch_fault_state(windows, start_s: float, end_s: float) -> tuple:
    """Fault windows projected onto one epoch, as cohort masks.

    Returns ``(down, wedged)`` for the epoch ``[start_s, end_s)``: the set
    of server indices with an overlapping ``node_down`` window, and a
    ``(server, channel) -> slowdown`` dict from overlapping
    ``channel_wedge`` windows (overlapping wedges on one channel keep the
    largest slowdown, as the injector does).

    This is the vector tier's view of :class:`FleetFaultInjector`: the
    whole window machinery collapses to per-epoch masks, applied to every
    request *assigned* during the epoch.  Detection latency, circuit
    breakers, and probation re-admission are event-tier fidelity — the
    epoch tier applies the raw fault, not the control loop around it.
    """
    down = set()
    wedged = {}
    for window in windows:
        if window.start_s >= end_s or window.end_s <= start_s:
            continue
        if window.kind == "node_down":
            down.add(window.server)
        elif window.kind == "channel_wedge":
            key = (window.server, window.channel)
            wedged[key] = max(wedged.get(key, 1.0), window.dsa_slowdown)
        # sdc_storm is event-tier fidelity (per-op corruption draws plus
        # breaker quarantine); the vector tier's capacity masks are not
        # affected by it, so it projects to neither set.
    return frozenset(down), wedged


def reroute_down(server: int, down, nservers: int, group=None) -> int:
    """The injector's deterministic failover walk, as a free function.

    Without `group`: identical to :meth:`FleetFaultInjector._reroute` —
    the next live server scanning forward (wrapping), or the original
    index when every node is down.  Shared so both tiers fail over to the
    same replacement.

    With `group` (an ordered list of server indices — a replication
    *replica set*): the walk is quorum-aware.  It scans the group ring
    starting after `server`'s position, skips **every** down replica (not
    just the immediate neighbour — the original linear probe could land on
    a second down replica, or worse, on a server outside the replica set
    entirely), and returns ``None`` when no live replica remains, so
    protocol layers observe total-group failure instead of silently
    writing to a non-replica.
    """
    if group is None:
        for step in range(1, nservers):
            candidate = (server + step) % nservers
            if candidate not in down:
                return candidate
        return server
    members = list(group)
    if server in members:
        start = members.index(server)
    else:
        start = -1  # not a member: scan the whole group from its head
    for step in range(1, len(members) + 1):
        candidate = members[(start + step) % len(members)]
        if candidate == server:
            continue
        if candidate not in down:
            return candidate
    return None


def live_quorum(group, down) -> list:
    """The live members of a replica `group`, in group order.

    The quorum-selection primitive of the replication layer: ABD sends
    its phases to exactly these replicas, and chain replication's
    reconfigured chain *is* this list.
    """
    return [replica for replica in group if replica not in down]


@dataclass
class ChaosCounters:
    """Aggregate injector activity over one run."""

    rerouted: int = 0  # assignments moved off a down node
    breaker_spills: int = 0  # requests onloaded because a breaker was OPEN
    degraded_served: int = 0  # DSA ops served at a wedged channel's rate
    completed_in_fault: int = 0
    completed_outside: int = 0
    sdc_injected: int = 0  # DSA ops silently corrupted by an sdc_storm
    sdc_detected: int = 0  # ...caught by end-to-end verification
    sdc_undetected: int = 0  # ...that escaped (verify off or coverage gap)


class FleetFaultInjector:
    """Schedules fault windows against a Fleet and accounts the recovery.

    Attach with :meth:`attach` (done by ``run_scenario`` when a
    `fault_injector` is passed); the Fleet consults the injector on every
    assignment (:meth:`filter_assignment`) and reports every DSA service
    (:meth:`observe_dsa`) and completion (:meth:`note_completion`).
    """

    def __init__(self, windows, breaker_threshold: int = 3,
                 breaker_cooldown_s: float = 1e-3,
                 degraded_ratio: float = 4.0,
                 sdc_plan=None, verify_coverage: float = 1.0):
        self.windows = sorted(
            windows, key=lambda w: (w.start_s, w.kind, w.server, w.channel or 0))
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_s = breaker_cooldown_s
        self.degraded_ratio = degraded_ratio
        # SDC storms draw corruption/detection randomness from the plan's
        # ``fleet.sdc`` stream so chaos reports stay byte-identical per
        # seed; verify_coverage is the end-to-end check's catch rate
        # (1.0 = semantic verification on, 0.0 = verification disabled).
        self.sdc_plan = sdc_plan
        self.verify_coverage = verify_coverage
        self.counters = ChaosCounters()
        self.sim = None
        self.fleet = None
        self._down = set()  # server indices currently failed
        self._wedged = {}  # (server, channel) -> slowdown factor
        self._sdc = {}  # server -> active sdc_storm corruption rate
        self._breakers = {}  # (server, channel) -> CircuitBreaker
        self._monitors = {}  # (server, channel) -> DsaHealthMonitor
        self._active = []  # currently-active FaultWindows
        if (sdc_plan is None
                and any(w.kind == "sdc_storm" for w in self.windows)):
            from repro.faults.plan import FaultPlan
            self.sdc_plan = FaultPlan(seed=0)

    # -- wiring ---------------------------------------------------------------------

    def attach(self, sim, fleet) -> None:
        """Bind to a simulator + fleet and schedule every fault window."""
        self.sim = sim
        self.fleet = fleet
        fleet.fault_injector = self
        for window in self.windows:
            if not 0 <= window.server < len(fleet.servers):
                raise ValueError("fault window names server %d of %d"
                                 % (window.server, len(fleet.servers)))
            channels = len(fleet.servers[window.server].channels)
            if window.kind == "channel_wedge" and not 0 <= window.channel < channels:
                raise ValueError("channel_wedge names channel %d of %d"
                                 % (window.channel, channels))
            sim.schedule(window.start_s, self._start, window)
            sim.schedule(window.end_s, self._end, window)

    def _breaker(self, server: int, channel: int) -> CircuitBreaker:
        key = (server, channel)
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(
                failure_threshold=self.breaker_threshold,
                cooldown=self.breaker_cooldown_s,
            )
            self._breakers[key] = breaker
            self._monitors[key] = DsaHealthMonitor(
                window=8, latency_threshold=self.degraded_ratio)
        return breaker

    def _start(self, window: FaultWindow) -> None:
        self._active.append(window)
        self._recompute()
        # A window is detected at its first instant with its lane's breaker
        # OPEN: now, if a breaker it covers is already open (no CLOSED ->
        # OPEN edge is then left inside it), else at the next entry into
        # OPEN in observe_dsa.
        if window.kind != "node_down" and any(
                breaker.state is BreakerState.OPEN
                for (server, channel), breaker in self._breakers.items()
                if server == window.server
                and window.channel in (None, channel)):
            self._mark_detected(window.kind, window.server, window.channel)

    def _end(self, window: FaultWindow) -> None:
        self._active.remove(window)
        self._recompute()
        if window.kind == "node_down" and window.server not in self._down:
            # The node rejoining *is* the restoration of every window that
            # kept it down.  A wedge's or SDC storm's restoration is
            # observed later, when the channel's breaker re-closes on a
            # healthy probation probe.
            for ended in self.windows:
                if (ended.kind == "node_down" and ended.server == window.server
                        and ended.restored_s is None
                        and ended.end_s <= self.sim.now):
                    ended.restored_s = self.sim.now

    def _recompute(self) -> None:
        """Fault state from the active windows: a server is down while any
        ``node_down`` covers it, and overlapping wedges or storms keep the
        largest slowdown or SDC rate, as :func:`epoch_fault_state` keeps
        the largest slowdown."""
        self._down = {w.server for w in self._active if w.kind == "node_down"}
        self._wedged = {}
        self._sdc = {}
        for w in self._active:
            if w.kind == "channel_wedge":
                key = (w.server, w.channel)
                self._wedged[key] = max(self._wedged.get(key, 0.0), w.dsa_slowdown)
            elif w.kind == "sdc_storm":
                self._sdc[w.server] = max(self._sdc.get(w.server, 0.0), w.sdc_rate)

    # -- health probes ---------------------------------------------------------------

    def is_down(self, server: int) -> bool:
        """Whether `server` is inside an active ``node_down`` window now.

        The replication layer's health check: protocol clients consult
        this *before* targeting a replica, because a quorum hop must
        observe the failure (and requorum around it) rather than be
        silently redirected to a different server the way stateless
        requests are."""
        return server in self._down

    # -- assignment path -------------------------------------------------------------

    def filter_assignment(self, fleet, assignment: Assignment) -> Assignment:
        """Apply failover and breaker spill to one scheduling decision."""
        server = assignment.server
        spill = assignment.spill
        if server in self._down:
            server = self._reroute(server, len(fleet.servers))
            self.counters.rerouted += 1
            self._mark_detected("node_down", assignment.server, None)
        breaker = self._breakers.get((server, assignment.channel))
        if (not spill and breaker is not None
                and not breaker.allow(self.sim.now)):
            # Channel quarantined: run the ULP on the CPU instead.
            spill = True
            self.counters.breaker_spills += 1
        if server == assignment.server and spill == assignment.spill:
            return assignment
        return Assignment(server=server, channel=assignment.channel, spill=spill)

    def _reroute(self, server: int, nservers: int) -> int:
        return reroute_down(server, self._down, nservers)

    # -- DSA service path -----------------------------------------------------------

    def dsa_multiplier(self, server: int, channel: int) -> float:
        """Service-time multiplier for one DSA op (1.0 when healthy)."""
        factor = self._wedged.get((server, channel), 1.0)
        if factor != 1.0:
            self.counters.degraded_served += 1
        return factor

    def observe_dsa(self, server: int, channel: int,
                    observed_seconds: float, nominal_seconds: float) -> None:
        """Feed one measured DSA stage (wait + service) into the channel's
        health monitor and breaker.  The signal is the ratio to the nominal
        service time — queueing behind a wedge inflates it even for
        requests served after the wedge clears, which is exactly the
        backlog the breaker should wait out before re-admitting."""
        if nominal_seconds <= 0.0:
            return
        ratio = observed_seconds / nominal_seconds
        breaker = self._breaker(server, channel)
        self._monitors[(server, channel)].observe(latency=ratio)
        before = breaker.state
        if ratio > self.degraded_ratio:
            breaker.record_failure(self.sim.now)
        else:
            breaker.record_success(self.sim.now)
            if (before is not BreakerState.CLOSED
                    and breaker.state is BreakerState.CLOSED):
                self._mark_restored(server, channel)
        rate = self._sdc.get(server)
        if rate is not None:
            rng = self.sdc_plan.rng(FaultSite.FLEET_SDC)
            if rng.random() < rate:
                self.counters.sdc_injected += 1
                if rng.random() < self.verify_coverage:
                    # End-to-end verification caught the corruption: the
                    # request is redone (goodput cost is already priced by
                    # the breaker spill path) and the channel takes a
                    # failure — enough of them quarantine the lane.
                    self.counters.sdc_detected += 1
                    breaker.record_failure(self.sim.now)
                else:
                    self.counters.sdc_undetected += 1
        if breaker.state is BreakerState.OPEN and before is not BreakerState.OPEN:
            # The lane is quarantined: that detects every active wedge of
            # the channel and SDC storm of the server.
            self._mark_detected("channel_wedge", server, channel)
            self._mark_detected("sdc_storm", server, None)

    def _mark_detected(self, kind: str, server: int, channel) -> None:
        """A detection is the detection of every matching window active
        now: started, and its service not yet restored."""
        for window in self.windows:
            if (window.kind == kind and window.server == server
                    and (channel is None or window.channel == channel)
                    and window.detected_s is None
                    and window.restored_s is None
                    and window.start_s <= self.sim.now):
                window.detected_s = self.sim.now

    def _mark_restored(self, server: int, channel: int) -> None:
        """A breaker re-close restores every matching window that has
        already ended."""
        for window in self.windows:
            if (window.kind in ("channel_wedge", "sdc_storm")
                    and window.server == server
                    and (window.channel is None or window.channel == channel)
                    and window.restored_s is None
                    and self.sim.now >= window.end_s):
                window.restored_s = self.sim.now

    # -- completion path -------------------------------------------------------------

    def note_completion(self, now: float) -> None:
        """Classify one completed request as inside/outside a fault window."""
        if self._active:
            self.counters.completed_in_fault += 1
        else:
            self.counters.completed_outside += 1

    # -- reporting -------------------------------------------------------------------

    @staticmethod
    def _union_seconds(intervals, lo: float, hi: float) -> float:
        """Total measure of the union of `intervals` clipped to [lo, hi]."""
        clipped = sorted(
            (max(start, lo), min(end, hi))
            for start, end in intervals
            if min(end, hi) > max(start, lo)
        )
        total = 0.0
        cursor = None
        for start, end in clipped:
            if cursor is None or start > cursor:
                total += end - start
                cursor = end
            elif end > cursor:
                total += end - cursor
                cursor = end
        return total

    def report(self, window_start: float, window_end: float,
               servers: int, channels: int) -> dict:
        """Deterministic chaos summary: windows, MTTR, availability, goodput.

        Availability is capacity-weighted downtime: a down node removes
        ``1/servers`` of fleet capacity, a wedged channel removes
        ``1/(servers*channels)``, integrated over the measurement window.
        """
        measured = max(window_end - window_start, 0.0)
        lost_capacity_s = 0.0
        for window in self.windows:
            overlap = self._union_seconds(
                [(window.start_s, window.end_s)], window_start, window_end)
            weight = (1.0 / servers if window.kind == "node_down"
                      else 1.0 / (servers * channels))
            lost_capacity_s += weight * overlap
        availability = (
            1.0 - lost_capacity_s / measured if measured > 0 else 1.0)
        fault_seconds = self._union_seconds(
            [(w.start_s, w.end_s) for w in self.windows],
            window_start, window_end)
        clear_seconds = measured - fault_seconds
        counters = self.counters
        mttrs = [w.mttr_s for w in self.windows if w.mttr_s is not None]
        return {
            "windows": [w.to_dict() for w in self.windows],
            "mttr_mean_s": sum(mttrs) / len(mttrs) if mttrs else None,
            "availability": availability,
            "fault_seconds": fault_seconds,
            "rerouted": counters.rerouted,
            "breaker_spills": counters.breaker_spills,
            "degraded_served": counters.degraded_served,
            "sdc_injected": counters.sdc_injected,
            "sdc_detected": counters.sdc_detected,
            "sdc_undetected": counters.sdc_undetected,
            "goodput_in_fault_rps": (
                counters.completed_in_fault / fault_seconds
                if fault_seconds > 0 else None),
            "goodput_clear_rps": (
                counters.completed_outside / clear_seconds
                if clear_seconds > 0 else None),
            "breakers": {
                "server%d.ch%d" % key: self._breakers[key].summary()
                for key in sorted(self._breakers)
            },
        }
