"""Replicated storage on the simulated fleet.

The paper's server model prices one ULP stage on one machine; the cluster
package scales that to a rack of independent request/response servers.
This package closes the loop on the paper's motivating deployment:
*replicated storage*, where every client operation fans out into a DAG of
replica-to-replica hops and each hop pays the compress+encrypt upper-layer
protocol cost at a configurable placement (SmartDIMM, CPU onload, or
QuickAssist lookaside).

* :mod:`~repro.replication.hopcost` — composite DEFLATE-then-AES-GCM hop
  pricing, duck-typed to the fleet's ``ServiceProfile`` surface.
* :mod:`~repro.replication.protocol` — ABD quorum reads/writes and chain
  replication as simulator coroutines, with suspicion-based failure
  detection, quorum-aware reconfiguration, chain resync, and retries
  drawn from a shared :class:`~repro.overload.retry.RetryBudget`.
* :mod:`~repro.replication.checker` — post-run consistency audit:
  staleness, phantom reads, monotonic reads, version uniqueness.
* :mod:`~repro.replication.scenario` — :class:`ReplicationScenario` (the
  fleet knobs of :class:`repro.cluster.scenario.FleetScenario` plus the
  replicated-store knobs) / :func:`run_replication` /
  :class:`ReplicationReport`.
* :mod:`~repro.replication.sweep` — the placement sweep behind
  ``BENCH_replication.json``, run with
  ``python -m repro matrix --only replication [--quick|--check|--update]``,
  plus the scenario and chaos schedule ``python -m repro replicate``
  runs once.
"""

from repro.replication.checker import (
    INITIAL_VERSION,
    ConsistencyChecker,
    OpRecord,
    Violation,
)
from repro.replication.hopcost import ReplicationHopProfile
from repro.replication.protocol import PROTOCOLS, ReplicationGroup
from repro.replication.scenario import (
    ReplicationReport,
    ReplicationScenario,
    run_replication,
)

__all__ = [
    "INITIAL_VERSION",
    "ConsistencyChecker",
    "OpRecord",
    "PROTOCOLS",
    "ReplicationGroup",
    "ReplicationHopProfile",
    "ReplicationReport",
    "ReplicationScenario",
    "Violation",
    "run_replication",
]
