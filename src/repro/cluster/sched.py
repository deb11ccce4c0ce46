"""Placement schedulers: static, least-loaded, and adaptive CPU spill.

The scheduler answers two questions per request: *which* (server, channel)
pair serves it, and — for ULPs with a CPU-onload alternative — *where the
ULP itself runs*.  The third policy makes the paper's Observation 2
("offload pays only while the accelerator is the cheaper queue") a dynamic,
per-request decision instead of a deployment-time constant:

* :class:`StaticScheduler` — requests hash to a fixed (server, channel) by
  connection (or request id for open-loop traffic).  No load awareness:
  the baseline whose p99 collapses when a burst saturates the DSAs.
* :class:`LeastLoadedScheduler` — joins the server with the smallest
  outstanding backlog, then that server's shortest DSA queue (JSQ).
* :class:`AdaptiveSpillScheduler` — least-loaded placement, plus a
  marginal-cost spill rule: if the chosen DSA queue's backlog exceeds the
  CPU pool's backlog by more than the extra CPU time onloading would cost,
  the request runs its ULP on the CPU and skips the DSA queue entirely.

All policies are deterministic given the same request stream; any future
randomised policy must draw from the :class:`random.Random` handed to the
constructor (never module-level ``random``), preserving the seed ⇒
byte-identical-output guarantee.
"""

from __future__ import annotations

from repro.cluster.fleet import Assignment, Fleet
from repro.cluster.loadgen import Request


def spill_decision(dsa_backlog_s: float, cpu_backlog_s: float, threads: int,
                   offload_cpu_s: float, onload_cpu_s: float,
                   spill_factor: float = 1.0) -> bool:
    """The Observation-2 marginal-cost rule of :class:`AdaptiveSpillScheduler`.

    Onloading trades the DSA queue for extra worker time
    ``delta = cpu(onload) - cpu(offload)``; spill when the DSA backlog
    exceeds the per-worker CPU backlog by more than ``spill_factor * delta``.
    The vector tier never calls this function: its cohort plan
    (``_VectorFleet._spill_plan`` in :mod:`repro.cluster.vector`) applies
    the same rule to projected end-of-epoch waits instead of the current
    backlogs.
    """
    delta = max(onload_cpu_s - offload_cpu_s, 0.0)
    cpu_wait = cpu_backlog_s / threads
    return dsa_backlog_s > cpu_wait + spill_factor * delta


def _least_backlogged(stations):
    """The first of `stations` with the strictly smallest backlog seconds.

    `stations` (servers or channels) are in index order, so this is the
    pick of ``min(stations, key=lambda s: (s.backlog_seconds, s.index))``
    — ties go to the lowest index — without a key tuple per station.
    """
    iterator = iter(stations)
    best = next(iterator)
    least = best.backlog_seconds
    for station in iterator:
        backlog = station.backlog_seconds
        if backlog < least:
            best, least = station, backlog
    return best


class Scheduler:
    """Base policy: subclasses implement :meth:`assign`."""

    name = "base"

    def __init__(self, rng=None):
        self.rng = rng  # reserved for randomised policies; seeded upstream

    def assign(self, fleet: Fleet, request: Request) -> Assignment:
        """Pick the (server, channel) pair and spill decision for `request`."""
        raise NotImplementedError

    def reroute_full(self, fleet: Fleet, request: Request,
                     assignment: Assignment) -> Assignment:
        """Alternative placement when `assignment` hits a full bounded queue.

        Backpressure escalation, cheapest first: another (server, channel)
        with room on both stations; else any server with CPU room, spilling
        the ULP to its workers (skipping the full DSA queues entirely);
        else ``None`` — the fleet rejects the request at admission.

        Deterministic: candidates are scanned least-backlogged-first with
        index tie-breaks, the same total order the least-loaded policy
        uses.  Shared by every scheduler; policies with better information
        can override.
        """
        servers = sorted(fleet.servers, key=lambda s: (s.backlog_seconds, s.index))
        for server in servers:
            if not fleet.cpu_has_room(server, request):
                continue
            channels = sorted(server.channels,
                              key=lambda c: (c.backlog_seconds, c.index))
            for channel in channels:
                candidate = Assignment(server=server.index,
                                       channel=channel.index,
                                       spill=assignment.spill)
                if fleet.has_room(candidate, request):
                    return candidate
            if fleet.profile.can_spill:
                # Every DSA queue is full but this server's CPU has room:
                # onload the ULP (Observation 2's fallback, forced by
                # backpressure instead of marginal cost).
                return Assignment(server=server.index,
                                  channel=channels[0].index, spill=True)
        return None


class StaticScheduler(Scheduler):
    """Connection-hashed fixed placement, never spills.

    Closed-loop connections pin to one (server, channel) for their
    lifetime — the classic flow-hash NIC/LB behaviour; open-loop requests
    (no connection) stripe by request id, which is uniform but still
    load-blind.
    """

    name = "static"

    def assign(self, fleet: Fleet, request: Request) -> Assignment:
        """Hash the connection (or request id) to a fixed (server, channel)."""
        key = request.connection if request.connection >= 0 else request.id
        channels = len(fleet.servers[0].channels)
        slot = key % (len(fleet.servers) * channels)
        return Assignment(server=slot // channels, channel=slot % channels)


class LeastLoadedScheduler(Scheduler):
    """Join-the-shortest-queue over backlog *seconds*, not queue lengths,
    so heterogeneous request sizes balance correctly.  Ties break to the
    lowest index — deterministic by construction."""

    name = "least-loaded"

    def select(self, fleet: Fleet) -> tuple:
        """Return the least-backlogged server and its shortest DSA channel."""
        server = _least_backlogged(fleet.servers)
        return server, _least_backlogged(server.channels)

    def assign(self, fleet: Fleet, request: Request) -> Assignment:
        """Place `request` on the currently least-loaded server and channel."""
        server, channel = self.select(fleet)
        return Assignment(server=server.index, channel=channel.index)


class AdaptiveSpillScheduler(LeastLoadedScheduler):
    """Least-loaded placement with Observation-2 spill to CPU onload.

    Spill rule: let ``dsa_wait`` be the chosen channel's backlog and
    ``cpu_wait`` the per-worker CPU backlog.  Onloading trades the DSA
    queue for extra worker time ``delta = cpu(spill) - cpu(offload)``.
    Spill when::

        dsa_wait > cpu_wait + spill_factor * delta

    i.e. when the queueing delay the DSA would add exceeds what the spill
    itself costs, with `spill_factor` (default 1.0) biasing toward (<1) or
    away from (>1) the accelerator.  Under light load ``dsa_wait ~ 0`` and
    nothing spills — offload remains strictly better, as the paper's
    steady-state results require; under saturation the rule caps the DSA
    queue at the point where both paths cost the same at the margin.
    """

    name = "adaptive-spill"

    def __init__(self, rng=None, spill_factor: float = 1.0):
        super().__init__(rng)
        if spill_factor <= 0:
            raise ValueError("spill_factor must be positive")
        self.spill_factor = spill_factor

    def assign(self, fleet: Fleet, request: Request) -> Assignment:
        """Least-loaded placement, spilling to CPU when the rule fires."""
        server, channel = self.select(fleet)
        return Assignment(server=server.index, channel=channel.index,
                          spill=self._spill(fleet, request, server, channel))

    def _spill(self, fleet: Fleet, request: Request, server, channel) -> bool:
        """Whether `request` onloads its ULP instead of queueing on
        `channel` of `server` (the rule above)."""
        profile = fleet.profile
        if not profile.can_spill:
            return False
        offload = profile.route(request.size, request.kind, spill=False)
        if offload.dsa_seconds <= 0.0:
            return False
        onload = profile.route(request.size, request.kind, spill=True)
        return spill_decision(
            channel.backlog_seconds, server.cpu_backlog_seconds,
            server.threads, offload.cpu_seconds, onload.cpu_seconds,
            self.spill_factor)


class TargetedScheduler(AdaptiveSpillScheduler):
    """Honours ``request.target``: place on *that* server, choose the
    channel and spill decision locally.

    Replication hops are not free to run anywhere — a WRITE to replica 3
    must execute on replica 3's server or it is not a replica write.  The
    scheduler therefore pins the server to the hop's target and keeps only
    the intra-server freedoms: shortest DSA channel (JSQ) and the
    Observation-2 marginal-cost spill to CPU onload.  Requests without a
    target (``target < 0``) fall back to the adaptive-spill policy, so a
    mixed foreground/replication workload needs only one scheduler.

    ``reroute_full`` is overridden likewise: a targeted hop under
    backpressure may move channels or spill *within its server*, never to
    another server — if every path on the target is full the hop is
    rejected and the protocol's retry budget decides what happens next.
    """

    name = "targeted"

    def assign(self, fleet: Fleet, request: Request) -> Assignment:
        """Pin `request.target`'s server; pick channel + spill locally."""
        if request.target < 0:
            return super().assign(fleet, request)
        server = fleet.servers[request.target]
        channel = _least_backlogged(server.channels)
        return Assignment(server=server.index, channel=channel.index,
                          spill=self._spill(fleet, request, server, channel))

    def reroute_full(self, fleet: Fleet, request: Request,
                     assignment: Assignment) -> Assignment:
        """Backpressure escalation confined to the target server."""
        if request.target < 0:
            return super().reroute_full(fleet, request, assignment)
        server = fleet.servers[request.target]
        if not fleet.cpu_has_room(server, request):
            return None
        channels = sorted(server.channels,
                          key=lambda c: (c.backlog_seconds, c.index))
        for channel in channels:
            candidate = Assignment(server=server.index, channel=channel.index,
                                   spill=assignment.spill)
            if fleet.has_room(candidate, request):
                return candidate
        if fleet.profile.can_spill:
            return Assignment(server=server.index, channel=channels[0].index,
                              spill=True)
        return None


#: CLI/scenario name -> factory.
SCHEDULERS = {
    StaticScheduler.name: StaticScheduler,
    LeastLoadedScheduler.name: LeastLoadedScheduler,
    AdaptiveSpillScheduler.name: AdaptiveSpillScheduler,
    TargetedScheduler.name: TargetedScheduler,
}


def make_scheduler(name: str, rng=None, **kwargs) -> Scheduler:
    """Instantiate a scheduler by its CLI name."""
    try:
        factory = SCHEDULERS[name]
    except KeyError:
        raise ValueError(
            "unknown scheduler %r (choose from %s)"
            % (name, ", ".join(sorted(SCHEDULERS)))
        ) from None
    return factory(rng=rng, **kwargs)
