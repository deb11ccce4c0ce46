"""The rack: N servers x M channels, each channel fronting a SmartDIMM DSA.

Each server is modelled as four queueing stations a request traverses in
order, with service times derived from the *same* per-request resource
vectors the analytic model computes (:meth:`repro.sim.server.ServerModel.
request_costs`), evaluated at the analytic model's own fixed-point miss
probability:

* **cpu** — `threads` workers; service = cycles / core-Hz (plus the
  synchronous offload blocking time for lookaside placements, which is why
  QuickAssist tails balloon here exactly as Observation 2 predicts);
* **membus** — the server's DDR channels in aggregate; service =
  ddr_bytes / peak bandwidth.  Memory traffic interleaves across channels
  regardless of where the ULP runs, so this is one shared station;
* **channel DSA** — one FIFO per memory channel, used only by requests
  whose route actually runs the ULP on the DIMM; service = payload /
  DSA rate.  By default the DSA keeps up with its channel's share of
  bandwidth (the paper's design point); scenarios override
  ``dsa_bytes_per_sec`` downward to study saturation;
* **link** — the NIC; service = output bytes / link rate.

With the default calibration, each station's capacity equals the analytic
model's corresponding bound (cpu, memory, link), so a saturated closed
loop converges to the fixed-point RPS — the cross-check in
``tests/cluster/test_crosscheck.py``.  What the DES adds is everything the
fixed point can't express: queueing delay distributions, transient bursts,
and the DSA-saturation regime where the adaptive scheduler spills work
back to the CPU.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter

from repro.cpu.costs import DEFAULT_COSTS, CostModel
from repro.sim.server import Placement, ServerModel, Ulp, WorkloadSpec

from repro.cluster.kernel import Event
from repro.cluster.loadgen import DSA_RATIO_PENALTY, Request, measured_deflate_ratio
from repro.cluster.metrics import MetricsRegistry, TraceRecorder

#: Placements whose ULP executes on the DIMM-side DSA (and therefore queue
#: on a memory channel's DSA station).
DSA_PLACEMENTS = (Placement.SMARTDIMM, Placement.SMARTDIMM_DIRECT)

#: Chrome-trace tid layout inside one server (pid): workers, NIC, channels.
TRACE_TID_CPU = 0
TRACE_TID_LINK = 1
TRACE_TID_CHANNEL0 = 2


@dataclass(frozen=True)
class RouteCosts:
    """Station service times for one request class on one route."""

    cpu_seconds: float
    mem_seconds: float
    dsa_seconds: float
    link_seconds: float
    output_bytes: int
    ddr_bytes: float


@dataclass(frozen=True)
class Assignment:
    """A scheduling decision: where a request runs and on which route."""

    server: int
    channel: int
    spill: bool = False  # True: ULP on the CPU (onload), DSA queue skipped


class ServiceProfile:
    """Maps (size, corpus kind, route) -> :class:`RouteCosts`.

    Built once per scenario: solves the analytic model at the mix's mean
    size to obtain the fixed-point miss probability, then prices every
    request class at that operating point.  The analytic model stays
    authoritative for *per-request costs and cache contention*; the DES is
    authoritative for *queueing* (see DESIGN.md).
    """

    def __init__(self, ulp: Ulp, placement: Placement, mean_message_bytes: float,
                 threads: int = 10, connections: int = 512,
                 channels_per_server: int = 6,
                 costs: CostModel = DEFAULT_COSTS,
                 dsa_bytes_per_sec: float = None):
        if ulp is Ulp.NONE:
            placement = Placement.CPU
        self.ulp = ulp
        self.placement = placement
        self.threads = threads
        self.connections = connections
        self.channels_per_server = channels_per_server
        self.costs = costs
        self.membw_bytes_per_sec = costs.ddr_peak_bytes_per_sec
        self.dsa_bytes_per_sec = (
            dsa_bytes_per_sec or self.membw_bytes_per_sec / channels_per_server
        )
        self.mean_message_bytes = int(round(mean_message_bytes))
        calibration = self.reference_model(self.mean_message_bytes, kind=None)
        self.model_metrics = calibration.solve()
        self.p_miss = self.model_metrics.miss_probability
        self._routes = {}

    # -- analytic-model plumbing ----------------------------------------------------

    def _spec(self, size: int, kind, placement: Placement) -> WorkloadSpec:
        kwargs = {}
        if self.ulp is Ulp.DEFLATE and kind is not None:
            ratio = measured_deflate_ratio(kind)
            kwargs = {
                "compression_ratio_cpu": ratio,
                "compression_ratio_dsa": min(1.0, ratio * DSA_RATIO_PENALTY),
            }
        return WorkloadSpec(
            ulp=self.ulp,
            placement=placement,
            message_bytes=size,
            connections=self.connections,
            threads=self.threads,
            **kwargs,
        )

    def reference_model(self, size: int, kind=None,
                        placement: Placement = None) -> ServerModel:
        """The analytic model this profile prices requests with — the
        cross-check reference."""
        return ServerModel(self._spec(size, kind, placement or self.placement),
                           self.costs)

    def route(self, size: int, kind=None, spill: bool = False) -> RouteCosts:
        """Service times for a `size`-byte request of corpus `kind`.

        `spill=True` prices the CPU-onload route (the ULP computed by a
        worker core instead of the DSA) at the *same* contention point —
        the paper's Observation-2 alternative the adaptive scheduler falls
        back to when a DSA queue saturates.
        """
        # Keyed on the kind's value: hashing the member runs the
        # Python-level Enum.__hash__, and ``.value`` is a Python-level
        # property, on every lookup; ``_value_`` is a plain attribute.
        key = (size, None if kind is None else kind._value_, spill)
        cached = self._routes.get(key)
        if cached is not None:
            return cached
        placement = Placement.CPU if spill else self.placement
        model = self.reference_model(size, kind, placement)
        request = model.request_costs(self.p_miss)
        cpu_seconds = self.costs.cycles_to_seconds(request.cpu_cycles)
        # Synchronous lookaside APIs block the worker for the round trip
        # (ServerModel bounds this separately; serialising it onto the
        # worker is the conservative composition).
        cpu_seconds += request.accel_block_seconds
        dsa_seconds = 0.0
        if not spill and placement in DSA_PLACEMENTS:
            dsa_seconds = size / self.dsa_bytes_per_sec
        costs = RouteCosts(
            cpu_seconds=cpu_seconds,
            mem_seconds=request.ddr_bytes / self.membw_bytes_per_sec,
            dsa_seconds=dsa_seconds,
            link_seconds=request.output_bytes / self.costs.link_bytes_per_sec,
            output_bytes=request.output_bytes,
            ddr_bytes=request.ddr_bytes,
        )
        self._routes[key] = costs
        return costs

    @property
    def can_spill(self) -> bool:
        """Whether a CPU-onload alternative exists for this workload."""
        return self.placement is not Placement.CPU


def _make_station(sim, capacity: int, name: str, timeline=None,
                  qos=None, quantum_s: float = None):
    """A station resource: FIFO by default, DRR-arbitrated under a QoS
    policy in "drr" mode (each station gets its *own* arbiter — deficit
    state is per-queue, never shared)."""
    if qos is not None and qos.mode == "drr":
        from repro.qos.drr import QosResource
        return QosResource(sim, capacity, name,
                           arbiter=qos.make_arbiter(quantum_s),
                           timeline=timeline)
    return sim.resource(capacity, name, timeline)


class Channel:
    """One memory channel's DSA queue plus its backlog estimate."""

    __slots__ = ("index", "resource", "backlog_seconds", "served")

    def __init__(self, sim, server_index: int, index: int, timeline,
                 qos=None, quantum_s: float = None):
        self.index = index
        self.resource = _make_station(
            sim, 1, "server%d.ch%d" % (server_index, index), timeline,
            qos, quantum_s)
        self.backlog_seconds = 0.0
        self.served = 0


_channel_backlog = attrgetter("backlog_seconds")


class ServerSim:
    """One server's stations: worker pool, memory bus, DSA channels, NIC.

    Under a QoS policy the cpu and channel stations arbitrate DRR with
    strict-priority classes; membus and link stay FIFO — their service
    times are short and size-proportional, so they add queueing noise,
    not priority inversion (see DESIGN.md "Multi-tenant QoS").
    """

    def __init__(self, sim, index: int, threads: int, channels: int,
                 registry: MetricsRegistry, qos=None,
                 cpu_quantum_s: float = None, dsa_quantum_s: float = None):
        self.index = index
        self.threads = threads
        self.cpu = _make_station(sim, threads, "server%d.cpu" % index,
                                 qos=qos, quantum_s=cpu_quantum_s)
        self.membus = sim.resource(1, "server%d.membus" % index)
        self.link = sim.resource(1, "server%d.link" % index)
        self.cpu_backlog_seconds = 0.0
        self.channels = [
            Channel(sim, index, c,
                    registry.timeline("server%d.ch%d.util" % (index, c)),
                    qos, dsa_quantum_s)
            for c in range(channels)
        ]

    @property
    def backlog_seconds(self) -> float:
        return self.cpu_backlog_seconds + sum(
            map(_channel_backlog, self.channels))


class Job(Event):
    """One request in flight through its server's stations.

    The record every stage callback of :class:`Fleet`'s request path
    reads and writes, and the completion :class:`Event` that
    :meth:`Fleet.submit` returns: it triggers with the request once the
    response leaves the NIC, or once a deadline shed drops it.  Creating
    the job posts its first stage on the ready lane, where spawning a
    process would post the process's first step.
    """

    __slots__ = ("request", "server", "channel", "route", "enqueued",
                 "started", "dsa_seconds")

    def __init__(self, fleet: "Fleet", request: Request, server: ServerSim,
                 channel: Channel, route: RouteCosts):
        sim = fleet.sim
        # Event.__init__, inlined: one job per request.
        self.sim = sim
        self.value = None
        self.triggered = False
        self._callbacks = []
        self.request = request
        self.server = server
        self.channel = channel
        self.route = route
        self.enqueued = self.started = self.dsa_seconds = 0.0
        sim._ready.append((fleet._start, self))


class Fleet:
    """The full rack plus telemetry; `submit()` is the loadgen entry point."""

    def __init__(self, sim, profile: ServiceProfile, scheduler,
                 servers: int = 4, channels: int = None,
                 registry: MetricsRegistry = None,
                 trace: TraceRecorder = None,
                 overload=None, qos=None):
        channels = channels or profile.channels_per_server
        self.sim = sim
        self.profile = profile
        self.scheduler = scheduler
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace = trace
        self.fault_injector = None  # set by FleetFaultInjector.attach()
        self.overload = overload  # OverloadPolicy, or None (all control off)
        self.qos = qos  # QosPolicy, or None (single-tenant FIFO stations)
        # Per-scenario constants of the request path.
        self._placement_route = profile.placement.value
        self._overload_bounded = overload is not None and overload.config.bounded
        self._qos_bounded = qos is not None and bool(qos.queue_limits())
        cpu_quantum_s = dsa_quantum_s = None
        if qos is not None:
            # Auto quantum: one mean request's service time per station,
            # so every DRR visit covers a typical head-of-line request
            # and interleaving stays request-granular.
            mean_route = profile.route(profile.mean_message_bytes)
            cpu_quantum_s = max(mean_route.cpu_seconds, 1e-9)
            dsa_quantum_s = max(mean_route.dsa_seconds,
                                mean_route.cpu_seconds, 1e-9)
        self.servers = [
            ServerSim(sim, index, profile.threads, channels, self.registry,
                      qos, cpu_quantum_s, dsa_quantum_s)
            for index in range(servers)
        ]
        self.measuring = True
        self.latency = self.registry.histogram("latency_s")
        self.spill_latency = self.registry.histogram("latency_spilled_s")
        self.wait_cpu = self.registry.histogram("wait_cpu_s")
        self.wait_dsa = self.registry.histogram("wait_dsa_s")
        self.completed = self.registry.counter("completed")
        self.submitted = self.registry.counter("submitted")
        self.spilled = self.registry.counter("spilled")
        self.dsa_served = self.registry.counter("dsa_served")
        self.bytes_out = self.registry.counter("bytes_out")
        if overload is not None:
            config = overload.config
            for server in self.servers:
                server.cpu.max_queue = config.cpu_queue_limit
                for channel in server.channels:
                    channel.resource.max_queue = config.dsa_queue_limit
        if overload is not None or qos is not None:
            self.deadline_met = self.registry.counter("deadline_met")
            self.deadline_missed = self.registry.counter("deadline_missed")
            self.rejected_admission = self.registry.counter("rejected_admission")
            self.rejected_backpressure = self.registry.counter(
                "rejected_backpressure")
            self.brownouts = self.registry.counter("brownouts")
            self.shed = {
                station: self.registry.counter("shed_" + station)
                for station in ("cpu", "dsa", "link")
            }
        # Per-tenant and per-class breakdowns (QoS layer).  Tenant slots
        # are pre-created in policy order so the registry's layout — and
        # therefore every report — is independent of arrival order.
        self.tenant_stats = {}
        self.class_deadline = {}  # klass -> [met, missed]
        if qos is not None:
            for name in qos.order:
                self._tenant_slot(name)
        if trace is not None:
            for server in self.servers:
                trace.metadata("process_name", server.index, 0,
                               "server%d" % server.index)
                trace.metadata("thread_name", server.index, TRACE_TID_CPU, "cpu")
                trace.metadata("thread_name", server.index, TRACE_TID_LINK, "nic")
                for channel in server.channels:
                    trace.metadata("thread_name", server.index,
                                   TRACE_TID_CHANNEL0 + channel.index,
                                   "dsa-ch%d" % channel.index)

    # -- measurement window ----------------------------------------------------------

    def begin_measurement(self) -> None:
        """Zero utilisation integrals and counters at the end of warmup."""
        self.measuring = True
        for server in self.servers:
            server.cpu.reset_utilisation()
            server.membus.reset_utilisation()
            server.link.reset_utilisation()
            for channel in server.channels:
                channel.resource.reset_utilisation()

    # -- request path ---------------------------------------------------------------

    @staticmethod
    def _station_full(resource, request: Request) -> bool:
        """Station-wide bound, plus the request's per-tenant bound when
        the station is QoS-arbitrated."""
        if request is not None and request.tenant:
            full_for = getattr(resource, "full_for", None)
            if full_for is not None:
                return full_for(request.tenant)
        return resource.full

    def cpu_has_room(self, server: ServerSim, request: Request = None) -> bool:
        """Whether `server`'s bounded CPU queue can take another request."""
        return not self._station_full(server.cpu, request)

    def dsa_has_room(self, channel: Channel, request: Request = None) -> bool:
        """Whether `channel`'s bounded DSA queue can take another request."""
        return not self._station_full(channel.resource, request)

    def has_room(self, assignment: Assignment, request: Request = None) -> bool:
        """Whether every bounded station on `assignment`'s path has room."""
        server = self.servers[assignment.server]
        if not self.cpu_has_room(server, request):
            return False
        spill = assignment.spill and self.profile.can_spill
        if not spill and self.profile.placement in DSA_PLACEMENTS:
            return self.dsa_has_room(server.channels[assignment.channel], request)
        return True

    def _tenant_slot(self, tenant: str) -> dict:
        """The per-tenant accounting slot, created on first use."""
        stats = self.tenant_stats.get(tenant)
        if stats is None:
            stats = self.tenant_stats[tenant] = {
                "submitted": 0, "completed": 0, "deadline_met": 0,
                "deadline_missed": 0, "rejected": 0, "shed": 0,
                "brownouts": 0, "bytes_out": 0,
                "latency": self.registry.histogram(
                    "tenant.%s.latency_s" % tenant),
            }
        return stats

    def _tenant_count(self, request: Request, field: str, amount: int = 1) -> None:
        if request.tenant and self.measuring:
            self._tenant_slot(request.tenant)[field] += amount

    def _reject(self, request: Request, reason: str, counter) -> None:
        request.outcome = reason
        if self.measuring:
            counter.inc()
        self._tenant_count(request, "rejected")

    def submit(self, request: Request):
        """Schedule and serve one request; returns its completion event.

        Returns ``None`` when overload control drops the request up front:
        either the CoDel admission controller sheds it at ingress, or every
        bounded queue the scheduler could re-route it to is full
        (backpressure).  Load generators treat ``None`` as a fast-failed
        request.
        """
        policy = self.overload
        if policy is not None:
            request.deadline_s = policy.deadline_for(request.arrive_s,
                                                     request.klass)
            if not policy.admit(self.sim.now, request.tenant):
                self._reject(request, "rejected-admission",
                             self.rejected_admission)
                return None
        assignment = self.scheduler.assign(self, request)
        if self.fault_injector is not None:
            # Chaos layer: fail over assignments to down nodes and spill
            # around channels whose circuit breaker is OPEN.
            assignment = self.fault_injector.filter_assignment(self, assignment)
        if (self._overload_bounded or (self._qos_bounded and request.tenant)) \
                and not self.has_room(assignment, request):
            # Bounded queue full: push back to the scheduler for an
            # alternative placement; no alternative means the rack is
            # saturated end to end and the request is rejected up front.
            # Per-tenant bounds reroute/reject the same way — but only the
            # offending tenant's traffic trips them.
            assignment = self.scheduler.reroute_full(self, request, assignment)
            if assignment is not None and self.fault_injector is not None:
                assignment = self.fault_injector.filter_assignment(
                    self, assignment)
            if assignment is None or not self.has_room(assignment, request):
                self._reject(request, "rejected-backpressure",
                             self.rejected_backpressure)
                return None
        spill = assignment.spill and self.profile.can_spill
        route = self.profile.route(request.size, request.kind, spill=spill)
        if policy is not None and route.dsa_seconds > 0.0 \
                and policy.brownout(self.sim.now, request.tenant):
            # Brownout: serve degraded (lower compression level / skipped
            # optional ULP stages -> a cheaper DSA pass) instead of shedding.
            route = replace(
                route,
                dsa_seconds=route.dsa_seconds * policy.config.brownout_factor)
            request.brownout = True
            if self.measuring:
                self.brownouts.inc()
            self._tenant_count(request, "brownouts")
        server = self.servers[assignment.server]
        channel = server.channels[assignment.channel]
        request.server = assignment.server
        request.channel = assignment.channel
        request.route = "cpu-spill" if spill else self._placement_route
        server.cpu_backlog_seconds += route.cpu_seconds
        if route.dsa_seconds > 0.0:
            channel.backlog_seconds += route.dsa_seconds
        if self.measuring:
            self.submitted.inc()
            if spill:
                self.spilled.inc()
        self._tenant_count(request, "submitted")
        return Job(self, request, server, channel, route)

    def _shed_expired(self, request: Request, station: str) -> bool:
        """Deadline check at a station dequeue; count the shed if due."""
        policy = self.overload
        if policy is None or not policy.expired(self.sim.now, request.deadline_s):
            return False
        request.outcome = "shed-" + station
        if self.measuring:
            self.shed[station].inc()
        self._tenant_count(request, "shed")
        return True

    def _observe_wait(self, station: str, wait_s: float,
                      request: Request) -> None:
        if self.overload is not None:
            self.overload.observe(station, self.sim.now, wait_s,
                                  request.tenant)

    # -- the request's stage chain ---------------------------------------------------
    #
    # Each stage is one kernel callback over the request's Job.  A station
    # grant is ``Resource.request(stage, job)`` and a service time is
    # ``sim.sleep(d, stage, job)``: one heap entry whose callback posts the
    # next stage on the ready lane.  A DSA-routed request thus costs 13
    # events: its start, four grants and four two-event sleeps.  The stages
    # call the trace hook only with a recorder attached, and the overload
    # hooks (:meth:`_observe_wait`, :meth:`_shed_expired`) only under an
    # overload policy.

    def _start(self, job: Job) -> None:
        # CPU stage: protocol stack + ULP management (or the whole ULP when
        # spilled) on one of the worker cores.
        job.enqueued = self.sim.now
        request = job.request
        job.server.cpu.request(self._cpu_granted, job, request.tenant,
                               request.klass, job.route.cpu_seconds)

    def _cpu_granted(self, job: Job) -> None:
        sim = self.sim
        request = job.request
        route = job.route
        wait = request.waits["cpu"] = sim.now - job.enqueued
        if self.overload is not None:
            self._observe_wait("cpu", wait, request)
            if self._shed_expired(request, "cpu"):
                # Dead on dequeue: don't burn a worker on work the client
                # has already given up on.  Refund both backlogs — the
                # request never reaches its DSA queue either.
                server = job.server
                server.cpu.release()
                server.cpu_backlog_seconds -= route.cpu_seconds
                if route.dsa_seconds > 0.0:
                    job.channel.backlog_seconds -= route.dsa_seconds
                job.succeed(request)
                return
        job.started = sim.now
        sim.sleep(route.cpu_seconds, self._cpu_done, job)

    def _cpu_done(self, job: Job) -> None:
        server = job.server
        route = job.route
        server.cpu.release()
        server.cpu_backlog_seconds -= route.cpu_seconds
        if self.trace is not None:
            self._trace(job.request, "cpu", job.started, route.cpu_seconds,
                        TRACE_TID_CPU)
        # Memory-bus stage: the request's DDR traffic at aggregate bandwidth.
        server.membus.request(self._membus_granted, job)

    def _membus_granted(self, job: Job) -> None:
        self.sim.sleep(job.route.mem_seconds, self._membus_done, job)

    def _membus_done(self, job: Job) -> None:
        job.server.membus.release()
        route = job.route
        if route.dsa_seconds > 0.0:
            # DSA stage: only routes that run the ULP on the DIMM queue here.
            job.enqueued = self.sim.now
            request = job.request
            job.channel.resource.request(self._dsa_granted, job,
                                         request.tenant, request.klass,
                                         route.dsa_seconds)
        else:
            job.server.link.request(self._link_granted, job)

    def _dsa_granted(self, job: Job) -> None:
        sim = self.sim
        request = job.request
        channel = job.channel
        route = job.route
        wait = request.waits["dsa"] = sim.now - job.enqueued
        if self.overload is not None:
            self._observe_wait("dsa", wait, request)
            if self._shed_expired(request, "dsa"):
                channel.resource.release()
                channel.backlog_seconds -= route.dsa_seconds
                job.succeed(request)
                return
        job.started = sim.now
        dsa_seconds = route.dsa_seconds
        if self.fault_injector is not None:
            # A wedged channel still serves, just slower; the health
            # monitor sees the inflated stage time and trips the breaker.
            dsa_seconds *= self.fault_injector.dsa_multiplier(
                job.server.index, channel.index)
        job.dsa_seconds = dsa_seconds
        sim.sleep(dsa_seconds, self._dsa_done, job)

    def _dsa_done(self, job: Job) -> None:
        channel = job.channel
        route = job.route
        channel.resource.release()
        channel.backlog_seconds -= route.dsa_seconds
        channel.served += 1
        if self.measuring:
            self.dsa_served.inc()
        if self.fault_injector is not None:
            self.fault_injector.observe_dsa(
                job.server.index, channel.index,
                job.request.waits["dsa"] + job.dsa_seconds, route.dsa_seconds)
        if self.trace is not None:
            self._trace(job.request, "dsa", job.started, job.dsa_seconds,
                        TRACE_TID_CHANNEL0 + channel.index)
        # Link stage: the response leaves through the NIC.
        job.server.link.request(self._link_granted, job)

    def _link_granted(self, job: Job) -> None:
        request = job.request
        if self.overload is not None and self._shed_expired(request, "link"):
            job.server.link.release()
            job.succeed(request)
            return
        sim = self.sim
        job.started = sim.now
        sim.sleep(job.route.link_seconds, self._link_done, job)

    def _link_done(self, job: Job) -> None:
        sim = self.sim
        request = job.request
        route = job.route
        job.server.link.release()
        if self.trace is not None:
            self._trace(request, "tx", job.started, route.link_seconds,
                        TRACE_TID_LINK)
        request.complete_s = sim.now
        if self.fault_injector is not None and self.measuring:
            self.fault_injector.note_completion(sim.now)
        if self.measuring:
            latency = request.latency_s
            met_deadline = request.met_deadline
            self.completed.inc()
            self.bytes_out.inc(route.output_bytes)
            self.latency.record(latency)
            if request.route == "cpu-spill":
                self.spill_latency.record(latency)
            self.wait_cpu.record(request.waits.get("cpu", 0.0))
            if "dsa" in request.waits:
                self.wait_dsa.record(request.waits["dsa"])
            if self.overload is not None or self.qos is not None:
                if met_deadline:
                    self.deadline_met.inc()
                else:
                    self.deadline_missed.inc()
                met = self.class_deadline.setdefault(request.klass, [0, 0])
                met[0 if met_deadline else 1] += 1
            if request.tenant:
                stats = self._tenant_slot(request.tenant)
                stats["completed"] += 1
                stats["bytes_out"] += route.output_bytes
                stats["latency"].record(latency)
                if met_deadline:
                    stats["deadline_met"] += 1
                else:
                    stats["deadline_missed"] += 1
        job.succeed(request)

    def _trace(self, request: Request, stage: str, started: float,
               duration: float, tid: int) -> None:
        if self.trace is not None:
            self.trace.complete(
                "%s/%s" % (self.profile.ulp.value, stage), "request",
                started, duration, request.server, tid,
                args={"req": request.id, "route": request.route,
                      "bytes": request.size},
            )

    # -- reporting ------------------------------------------------------------------

    def channel_utilisations(self, since: float) -> list:
        """Per-server lists of per-channel DSA busy fractions since warmup."""
        return [
            [channel.resource.utilisation(since) for channel in server.channels]
            for server in self.servers
        ]

    def cpu_utilisations(self, since: float) -> list:
        """Per-server CPU worker-pool utilisation over [since, now]."""
        return [server.cpu.utilisation(since) for server in self.servers]

    def qos_report(self, window_s: float) -> dict:
        """Per-tenant and per-class accounting for the measurement window.

        Per-tenant goodput counts deadline-met completions; the spread
        between tenants under an aggressor is the fairness metric the
        `qos` matrix target gates on.  Arbiter grant seconds are
        summed over every station so the DRR shares are auditable.
        """
        tenants = {}
        for name, stats in sorted(self.tenant_stats.items()):
            latency = stats["latency"]
            # No measured completion: no percentile (as in summary()).
            empty = latency.count == 0
            tenants[name] = {
                "submitted": stats["submitted"],
                "completed": stats["completed"],
                "goodput_rps": (
                    stats["deadline_met"] / window_s if window_s > 0 else 0.0),
                "deadline_met": stats["deadline_met"],
                "deadline_missed": stats["deadline_missed"],
                "deadline_hit_rate": (
                    stats["deadline_met"]
                    / max(1, stats["deadline_met"] + stats["deadline_missed"])),
                "rejected": stats["rejected"],
                "shed": stats["shed"],
                "brownouts": stats["brownouts"],
                "brownout_fraction": (
                    stats["brownouts"] / max(1, stats["completed"])),
                "bytes_out": stats["bytes_out"],
                "latency_p50_us": (
                    None if empty else latency.percentile(0.50) * 1e6),
                "latency_p99_us": (
                    None if empty else latency.percentile(0.99) * 1e6),
            }
        classes = {
            klass: {
                "met": met, "missed": missed,
                "hit_rate": met / max(1, met + missed),
            }
            for klass, (met, missed) in sorted(self.class_deadline.items())
        }
        served_seconds = {}
        for server in self.servers:
            stations = [server.cpu] + [c.resource for c in server.channels]
            for station in stations:
                arbiter = station.arbiter
                if arbiter is None:
                    continue
                for tenant, seconds in arbiter.served_seconds.items():
                    served_seconds[tenant] = served_seconds.get(tenant, 0.0) \
                        + seconds
        out = {
            "tenants": tenants,
            "classes": classes,
            "arbiter_served_seconds": dict(sorted(served_seconds.items())),
        }
        if self.qos is not None:
            out["policy"] = self.qos.summary()
        return out

    def overload_report(self, window_s: float) -> dict:
        """Overload-control accounting for the measurement window.

        Goodput counts only requests that completed *within their
        deadline* — the metric that exposes metastable collapse, which
        raw throughput hides.
        """
        out = self.overload.summary()
        out.update({
            "goodput_rps": (
                self.deadline_met.value / window_s if window_s > 0 else 0.0),
            "deadline_met": self.deadline_met.value,
            "deadline_missed": self.deadline_missed.value,
            "rejected_admission": self.rejected_admission.value,
            "rejected_backpressure": self.rejected_backpressure.value,
            "brownouts": self.brownouts.value,
            "shed": {
                station: counter.value
                for station, counter in sorted(self.shed.items())
            },
        })
        return out
