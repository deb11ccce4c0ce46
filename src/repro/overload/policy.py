"""Overload-control configuration and the per-run policy object.

One :class:`OverloadPolicy` instance is threaded through a fleet run and
owns the four mechanisms of the overload PR:

* **deadlines** — :meth:`deadline_for` stamps every request with an
  absolute deadline at admission; stations consult
  :attr:`OverloadConfig.shed_expired` to decide whether expired work is
  shed on dequeue (the fleet does the shedding, the policy the bookkeeping);
* **admission control** — per-station :class:`~repro.overload.codel.
  CoDelController` instances fed by :meth:`observe`; :meth:`admit`
  rejects an arriving request when any station's controller is in its
  dropping state and due for a drop;
* **brownout** — when the smoothed sojourn of any station exceeds the
  CoDel target, :meth:`brownout` tells the fleet to degrade the
  request (scale its DSA stage by ``brownout_factor`` — the "drop the
  compression level" move) instead of dropping it;
* **bounded queues** — the depth limits live here
  (``cpu_queue_limit`` / ``dsa_queue_limit``); the fleet enforces them
  and the scheduler re-routes around full stations.

Named tenants (the QoS layer) make deadlines class-relative and give
each tenant its own CoDel set and brownout count; without tenants the
policy is the single global one.  Everything is deterministic: no RNG,
no wall clock; all state advances only on ``observe``/``admit`` calls
driven by the seeded simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.overload.codel import CoDelController


@dataclass
class OverloadConfig:
    """Knobs for one run's overload control (all optional, all off by default)."""

    #: Relative deadline applied to every request (None: no deadline).
    deadline_s: float = None
    #: Shed expired work at station dequeues (False: deadlines are only
    #: *measured* — the "control off" curve of the sweep).
    shed_expired: bool = True
    #: Ingress admission controller: "codel" (needs ``deadline_s``, from
    #: which its target and interval derive) or "none".
    admission: str = "none"
    #: Per-channel DSA queue depth limit (None: unbounded).
    dsa_queue_limit: int = None
    #: Per-server CPU worker queue depth limit (None: unbounded).
    cpu_queue_limit: int = None
    #: DSA-stage service multiplier under brownout (1.0: brownout
    #: disabled); brownout triggers at the CoDel target sojourn.
    brownout_factor: float = 1.0

    def __post_init__(self):
        if self.admission not in ("none", "codel"):
            raise ValueError("admission must be 'none' or 'codel'")
        if not 0.0 < self.brownout_factor <= 1.0:
            raise ValueError("brownout_factor must be in (0, 1]")
        if self.admission == "codel" and self.deadline_s is None:
            raise ValueError("codel admission needs deadline_s")
        for name in ("dsa_queue_limit", "cpu_queue_limit"):
            limit = getattr(self, name)
            if limit is not None and limit < 1:
                raise ValueError("%s must be >= 1" % name)

    @property
    def enabled(self) -> bool:
        """Whether any overload mechanism (even measurement-only) is on."""
        return (self.deadline_s is not None or self.admission != "none"
                or self.dsa_queue_limit is not None
                or self.cpu_queue_limit is not None
                or self.brownout_factor < 1.0)

    @property
    def bounded(self) -> bool:
        return self.dsa_queue_limit is not None or self.cpu_queue_limit is not None

    def resolved_target_s(self) -> float:
        """CoDel target sojourn: a fifth of the deadline."""
        return self.deadline_s / 5.0

    def resolved_interval_s(self) -> float:
        """CoDel interval: four targets."""
        return 4.0 * self.resolved_target_s()


#: Relative deadline per priority class, as multiples of the configured
#: ``deadline_s``: latency-critical keeps the full SLO, standard gets 3x
#: slack, batch has no deadline at all (throughput-only traffic).
CLASS_DEADLINE_SCALE = {"latency": 1.0, "standard": 3.0, "batch": math.inf}


class OverloadPolicy:
    """Run-time state for one fleet's overload control.

    Untenanted (``tenants`` empty), one CoDel controller set serves every
    request and every request gets the configured deadline.  Naming
    tenants turns on the QoS layer's isolation: deadlines become
    class-relative via :data:`CLASS_DEADLINE_SCALE`, each tenant gets its
    own controller set, so an aggressor tripping its own CoDel into the
    dropping state sheds only the aggressor's traffic, and brownouts are
    counted per tenant.  `isolate=False` is the contrast arm: tenants
    keep class deadlines and brownout counts but share the one controller
    set, the pre-QoS global behaviour.
    """

    #: Station names fed by the fleet, in deterministic evaluation order.
    STATIONS = ("cpu", "dsa")

    def __init__(self, config: OverloadConfig, tenants=(),
                 isolate: bool = True):
        self.config = config
        self.tenant_names = sorted(tenants)
        self.isolate = isolate
        self.controllers = {}
        self._tenant_controllers = {}
        self._brownouts = {}  # tenant -> times brownout() returned True
        if config.admission == "codel":
            self.controllers = self._controller_set()
            if isolate:
                for tenant in self.tenant_names:
                    self._tenant_controllers[tenant] = self._controller_set()

    def _controller_set(self) -> dict:
        target = self.config.resolved_target_s()
        interval = self.config.resolved_interval_s()
        return {station: CoDelController(target, interval)
                for station in self.STATIONS}

    def _controllers_for(self, tenant: str) -> dict:
        """`tenant`'s own controller set when it has one, else the shared
        set (untenanted policies, `isolate=False`, unregistered tags such
        as replication hops)."""
        return self._tenant_controllers.get(tenant, self.controllers)

    # -- deadlines --------------------------------------------------------------

    def deadline_for(self, arrive_s: float, klass: str = None) -> float:
        """Absolute deadline for a request of class `klass` arriving at
        `arrive_s`; the class scales it only when tenants are named
        (batch: no deadline at all)."""
        if self.config.deadline_s is None:
            return math.inf
        if not self.tenant_names:
            return arrive_s + self.config.deadline_s
        scale = CLASS_DEADLINE_SCALE.get(klass, 1.0)
        if math.isinf(scale):
            return math.inf
        return arrive_s + self.config.deadline_s * scale

    def expired(self, now_s: float, deadline_s: float) -> bool:
        """Whether expired work should be shed at `now_s` (dequeue time)."""
        return self.config.shed_expired and now_s >= deadline_s

    # -- admission + sojourn feed -----------------------------------------------

    def observe(self, station: str, now_s: float, sojourn_s: float,
                tenant: str = None) -> None:
        """Feed one station dequeue's queueing wait to `tenant`'s
        controller for that station."""
        controller = self._controllers_for(tenant).get(station)
        if controller is not None:
            controller.observe(now_s, sojourn_s)

    def admit(self, now_s: float, tenant: str = None) -> bool:
        """Ingress decision for `tenant`'s request arriving now (False:
        reject), against that tenant's controllers only."""
        controllers = self._controllers_for(tenant)
        for station in self.STATIONS:
            controller = controllers.get(station)
            if controller is not None and controller.should_shed(now_s):
                return False
        return True

    # -- brownout ---------------------------------------------------------------

    def brownout(self, now_s: float, tenant: str = None) -> bool:
        """Whether `tenant`'s arriving work should be served degraded
        instead of shed: some controller's smoothed sojourn stands above
        the CoDel target."""
        controllers = self._controllers_for(tenant)
        if self.config.brownout_factor >= 1.0 or not controllers:
            return False
        threshold = self.config.resolved_target_s()
        degraded = any(controller.ewma_sojourn_s > threshold
                       for controller in controllers.values())
        if degraded and self.tenant_names and tenant:
            self._brownouts[tenant] = self._brownouts.get(tenant, 0) + 1
        return degraded

    # -- reporting --------------------------------------------------------------

    def summary(self) -> dict:
        """Deterministic JSON-ready snapshot: config plus controller state,
        and with tenants the per-tenant controller and brownout state."""
        out = {
            "deadline_s": self.config.deadline_s,
            "shed_expired": self.config.shed_expired,
            "admission": self.config.admission,
            "dsa_queue_limit": self.config.dsa_queue_limit,
            "cpu_queue_limit": self.config.cpu_queue_limit,
            "brownout_factor": self.config.brownout_factor,
        }
        if self.controllers:
            out["stations"] = {
                station: controller.summary()
                for station, controller in sorted(self.controllers.items())
            }
        if not self.tenant_names:
            return out
        out["isolate"] = self.isolate
        out["class_deadline_scale"] = {
            klass: (None if math.isinf(scale) else scale)
            for klass, scale in sorted(CLASS_DEADLINE_SCALE.items())
        }
        if self._tenant_controllers:
            out["tenants"] = {
                tenant: {
                    station: controller.summary()
                    for station, controller in sorted(controllers.items())
                }
                for tenant, controllers in sorted(self._tenant_controllers.items())
            }
        if self._brownouts:
            out["brownouts"] = dict(sorted(self._brownouts.items()))
        return out
