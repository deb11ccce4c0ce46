"""Tenant specifications and the fleet-level QoS policy.

A :class:`TenantSpec` declares one tenant's identity, priority class,
DRR weight, offered load, and per-tenant queue bound; a
:class:`QosPolicy` bundles the tenant set with the arbitration mode and
hands the fleet ready-made :class:`~repro.qos.drr.DrrArbiter` instances
(one per station — arbiters hold mutable deficit state, so they are
never shared between stations).

Offered load is declared either absolutely (``rate_rps``) or relative to
the tenant's *fair share* of fleet capacity (``load_factor``): a
well-behaved tenant runs at ``load_factor <= 1.0`` of its
weight-proportional slice, an aggressor at 2–3×.  The scenario runner
resolves shares against measured fleet capacity so tenant mixes stay
meaningful across hardware placements.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.qos.drr import CLASS_RANK, DrrArbiter

QOS_MODES = ("drr", "fifo")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's QoS contract and offered load.

    ``rate_rps`` (absolute) takes precedence over ``load_factor``
    (relative to the tenant's fair share of fleet capacity).
    ``connections > 0`` switches the tenant to closed-loop driving.
    ``queue_limit`` bounds this tenant's waiters per station (None:
    only the station-wide bound applies).
    """

    name: str
    klass: str = "standard"
    weight: float = 1.0
    rate_rps: float = None
    load_factor: float = 1.0
    connections: int = 0
    queue_limit: int = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("tenant needs a name")
        if self.klass not in CLASS_RANK:
            raise ValueError("unknown priority class %r (have %s)"
                             % (self.klass, sorted(CLASS_RANK)))
        if self.weight <= 0.0:
            raise ValueError("tenant weight must be positive")
        if self.rate_rps is None and self.load_factor <= 0.0 and not self.connections:
            raise ValueError("tenant %r offers no load" % self.name)
        if self.queue_limit is not None and self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")


class QosPolicy:
    """The fleet's multi-tenant contract: who exists, their weights,
    per-tenant bounds, and how stations arbitrate.

    mode "drr" installs DRR+strict-priority stations; mode "fifo" keeps
    the kernel's FIFO stations while still tagging and accounting per
    tenant — the contrast arm that shows what isolation buys.
    """

    def __init__(self, tenants, mode: str = "drr"):
        tenants = list(tenants)
        if not tenants:
            raise ValueError("QosPolicy needs at least one tenant")
        names = [spec.name for spec in tenants]
        if len(set(names)) != len(names):
            raise ValueError("duplicate tenant names: %s" % names)
        if mode not in QOS_MODES:
            raise ValueError("unknown qos mode %r (have %s)" % (mode, QOS_MODES))
        self.specs = {spec.name: spec for spec in tenants}
        self.order = names
        self.mode = mode

    @property
    def total_weight(self) -> float:
        return sum(spec.weight for spec in self.specs.values())

    def fair_share(self, tenant: str) -> float:
        """`tenant`'s weight-proportional fraction of fleet capacity."""
        return self.specs[tenant].weight / self.total_weight

    def weights(self) -> dict:
        """tenant name -> DRR weight, the arbiter's share map."""
        return {name: spec.weight for name, spec in self.specs.items()}

    def queue_limits(self) -> dict:
        """tenant name -> per-station depth bound (only bounded tenants)."""
        return {name: spec.queue_limit for name, spec in self.specs.items()
                if spec.queue_limit is not None}

    def make_arbiter(self, quantum_s: float) -> DrrArbiter:
        """A fresh per-station arbiter with DRR quantum `quantum_s` (the
        fleet passes one mean request's service time at the station)."""
        return DrrArbiter(
            weights=self.weights(),
            quantum_s=quantum_s,
            tenant_queue_limits=self.queue_limits(),
        )

    def summary(self) -> dict:
        """Deterministic JSON-ready description of the contract."""
        return {
            "mode": self.mode,
            "tenants": {
                name: {
                    "klass": spec.klass,
                    "weight": spec.weight,
                    "fair_share": self.fair_share(name),
                    "queue_limit": spec.queue_limit,
                }
                for name, spec in sorted(self.specs.items())
            },
        }
