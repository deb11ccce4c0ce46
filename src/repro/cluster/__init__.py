"""repro.cluster: deterministic rack-scale discrete-event simulation.

Layers SmartDIMM's per-request resource vectors (from
:mod:`repro.sim.server` / :mod:`repro.cpu.costs`) under a discrete-event
simulator so fleet-level questions — bursty arrivals, p99/p999 tails, DSA
queue saturation, offload-vs-onload scheduling — become measurable, not
just the single-server steady state the analytic model answers.

Quickstart::

    from repro.cluster import ClusterScenario, run_scenario

    report = run_scenario(ClusterScenario(servers=4, connections=512,
                                          ulp="tls", seed=1))
    print(report.table())

Or from the shell: ``python -m repro cluster --servers 4 --connections 512
--ulp tls --seed 1``.

Modules:

* :mod:`repro.cluster.kernel` — event heap and ready lane, simulated
  clock, seeded RNG, process-style coroutines, FIFO resources that grant
  by event or by callback.
* :mod:`repro.cluster.loadgen` — open-loop (Poisson/bursty) and
  closed-loop load with corpus-derived request mixes.
* :mod:`repro.cluster.fleet` — N servers x M channels, each channel
  fronting a SmartDIMM DSA queue priced by the analytic model; a request
  is a chain of stage callbacks over one job record.
* :mod:`repro.cluster.sched` — static, least-loaded, and adaptive
  CPU-spill placement schedulers (the paper's Observation 2, dynamic).
* :mod:`repro.cluster.metrics` — counters, log-bucketed latency
  histograms (p50/p99/p999), utilisation timelines, Chrome-trace export.
* :mod:`repro.cluster.scenario` — the fleet knobs every runner reads
  (:class:`FleetScenario`, which builds the overload and QoS policies),
  the request/response scenario on top of them (:class:`ClusterScenario`),
  its runner, and its report.
* :mod:`repro.cluster.chaos` — scheduled node/channel fault windows,
  per-channel circuit breakers, MTTR/availability/goodput accounting.
* :mod:`repro.cluster.epoch` — struct-of-arrays max-plus scan primitives
  (numpy columns) behind the batched-epoch fleet tier.
* :mod:`repro.cluster.vector` — the vector fleet tier: the same scenarios
  at ~10^6-connection scale, crosschecked against the event kernel.

Multi-tenant QoS (DRR stations, priority classes, per-tenant overload
state) lives in :mod:`repro.qos` and plugs in via
``ClusterScenario(tenants=[TenantSpec(...)])``.
"""

from repro.cluster.chaos import (
    ChaosCounters,
    FaultWindow,
    FleetFaultInjector,
    live_quorum,
    reroute_down,
)
from repro.cluster.fleet import (
    Assignment,
    Channel,
    Fleet,
    RouteCosts,
    ServerSim,
    ServiceProfile,
)
from repro.cluster.kernel import Event, Process, Resource, Simulator
from repro.cluster.loadgen import (
    BurstyArrivals,
    ClosedLoopLoad,
    MixEntry,
    OpenLoopLoad,
    PoissonArrivals,
    Request,
    RequestMix,
    measured_deflate_ratio,
)
from repro.cluster.metrics import (
    Counter,
    LogHistogram,
    MetricsRegistry,
    Timeline,
    TraceRecorder,
)
from repro.cluster.epoch import Station, fifo_scan
from repro.cluster.scenario import ClusterReport, ClusterScenario, run_scenario
from repro.cluster.vector import crosscheck_tiers, run_vector_scenario
from repro.cluster.sched import (
    SCHEDULERS,
    AdaptiveSpillScheduler,
    LeastLoadedScheduler,
    Scheduler,
    StaticScheduler,
    TargetedScheduler,
    make_scheduler,
)

__all__ = [
    # kernel
    "Simulator", "Event", "Process", "Resource",
    # load generation
    "RequestMix", "MixEntry", "Request", "PoissonArrivals", "BurstyArrivals",
    "OpenLoopLoad", "ClosedLoopLoad", "measured_deflate_ratio",
    # fleet
    "Fleet", "ServerSim", "Channel", "ServiceProfile", "RouteCosts", "Assignment",
    # scheduling
    "Scheduler", "StaticScheduler", "LeastLoadedScheduler",
    "AdaptiveSpillScheduler", "TargetedScheduler", "SCHEDULERS",
    "make_scheduler",
    # telemetry
    "Counter", "LogHistogram", "Timeline", "TraceRecorder",
    "MetricsRegistry",
    # scenarios
    "ClusterScenario", "ClusterReport", "run_scenario",
    # vector tier
    "run_vector_scenario", "crosscheck_tiers", "Station", "fifo_scan",
    # chaos
    "FaultWindow", "FleetFaultInjector", "ChaosCounters", "reroute_down",
    "live_quorum",
]
