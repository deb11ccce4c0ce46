"""Deficit-round-robin arbitration under strict-priority classes.

The multi-tenant QoS PR replaces the fleet stations' single FIFO with this
arbiter: waiters are queued per ``(priority class, tenant)``, dequeues pick
the highest-priority class with any waiter (strict priority — a
latency-critical request never queues behind batch work), and *within* a
class, tenants are served deficit round robin (DRR): each visit tops a
tenant's deficit counter up by ``quantum * weight`` and the tenant may
serve queued work until the deficit no longer covers the head-of-line
request's *service cost in seconds*.  Costing in seconds (not requests)
is what makes the shares byte-fair when tenants mix message sizes — the
same reason :class:`~repro.cluster.sched.LeastLoadedScheduler` balances
backlog seconds rather than queue lengths.

The arbiter is deliberately dumb about time: it never reads the clock and
has no RNG.  All state advances on ``enqueue``/``dequeue`` calls driven by
the seeded simulation, so identically-seeded runs arbitrate identically
(the repo-wide byte-identical-output guarantee).

The round-robin ring idiom follows the migen ``RoundRobin`` core logic
(see ROADMAP): a rotating cursor over the requesting set, advanced past
the grant — here augmented with the deficit counters that make the grant
weighted and size-aware.
"""

from __future__ import annotations

from collections import deque

from repro.cluster.kernel import Resource

#: Priority classes, highest priority first.  Strict priority between
#: classes; DRR fairness between tenants inside one class.
PRIORITY_CLASSES = ("latency", "standard", "batch")

#: Class name -> rank (lower rank dequeues first).
CLASS_RANK = {name: rank for rank, name in enumerate(PRIORITY_CLASSES)}

#: The class assumed for untagged requests.
DEFAULT_CLASS = "standard"


class DrrArbiter:
    """Per-station queueing state: per-(class, tenant) deques + deficits.

    Parameters
    ----------
    weights:
        tenant name -> DRR weight.  Tenants absent from the map get
        weight 1.0 (so untagged traffic and late-registered tenants are
        served, just without a privileged share).
    quantum_s:
        Deficit replenished per round-robin visit, in service *seconds*,
        scaled by the tenant's weight.  Pick it near the typical request
        service time: much smaller only adds arbitration rounds, much
        larger makes the interleaving burstier (classic DRR latitude).
    tenant_queue_limits:
        tenant name -> max queued requests for that tenant at this
        station (the per-tenant bounded queue of the QoS PR).  Absent or
        None: unlimited.  Enforced advisorily via :meth:`tenant_full`,
        exactly like :attr:`~repro.cluster.kernel.Resource.max_queue`.
    """

    def __init__(self, weights=None, quantum_s: float = 1e-4,
                 tenant_queue_limits=None):
        if quantum_s <= 0.0:
            raise ValueError("quantum_s must be positive")
        self.weights = dict(weights or {})
        self.quantum_s = quantum_s
        self.tenant_queue_limits = dict(tenant_queue_limits or {})
        self.pending = 0
        self._queues = {}   # (rank, tenant) -> deque[(cost_s, grant)]
        self._rings = {}    # rank -> [tenant, ...] in arrival order
        self._cursor = {}   # rank -> ring index of the current visit
        self._deficit = {}  # (rank, tenant) -> remaining service seconds
        self._visited = {}  # (rank, tenant) -> topped up this visit?
        self._tenant_pending = {}  # tenant -> queued count across classes
        #: tenant -> requests granted by this arbiter (fairness telemetry).
        self.served = {}
        #: tenant -> service seconds granted (the byte-fair share signal).
        self.served_seconds = {}

    # -- admission-side probes ---------------------------------------------------

    def weight(self, tenant: str) -> float:
        """The tenant's DRR weight (1.0 when unregistered)."""
        return self.weights.get(tenant, 1.0)

    def tenant_depth(self, tenant: str) -> int:
        """Requests currently queued here by `tenant` (all classes)."""
        return self._tenant_pending.get(tenant, 0)

    def tenant_full(self, tenant: str) -> bool:
        """Whether `tenant`'s per-tenant depth limit is exhausted."""
        limit = self.tenant_queue_limits.get(tenant)
        return limit is not None and self.tenant_depth(tenant) >= limit

    # -- queue maintenance --------------------------------------------------------

    def enqueue(self, tenant: str, klass: str, cost_s: float, grant) -> None:
        """Queue one waiter; `cost_s` is its service time at this station."""
        rank = CLASS_RANK.get(klass, CLASS_RANK[DEFAULT_CLASS])
        key = (rank, tenant)
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = deque()
            ring = self._rings.setdefault(rank, [])
            self._cursor.setdefault(rank, 0)
            ring.append(tenant)
            self._deficit.setdefault(key, 0.0)
            self._visited.setdefault(key, False)
        queue.append((max(cost_s, 0.0), grant))
        self.pending += 1
        self._tenant_pending[tenant] = self._tenant_pending.get(tenant, 0) + 1

    def __len__(self) -> int:
        return self.pending

    def dequeue(self):
        """The next grant under strict-priority DRR, or None when idle."""
        if self.pending == 0:
            return None
        for rank in sorted(self._rings):
            ring = self._rings[rank]
            if ring:
                return self._grant(rank, ring)
        return None  # unreachable while pending > 0; defensive

    #: :class:`QosResource` keeps the arbiter as its waiter queue, so the
    #: inherited ``Resource.release`` pops grants through the deque
    #: protocol: ``len()`` and ``popleft()``.
    popleft = dequeue

    def _grant(self, rank: int, ring: list):
        """One DRR selection round inside the class `rank`.

        Classic DRR, serialised one grant at a time: visit the cursor's
        tenant, top its deficit up once per visit, and serve while the
        deficit covers the head-of-line cost; otherwise end the visit and
        advance.  Deficits grow by ``quantum * weight`` every full ring
        rotation, so the loop always terminates at the tenant whose
        accumulated share first covers its head-of-line request.
        """
        while True:
            cursor = self._cursor[rank] % len(ring)
            self._cursor[rank] = cursor
            tenant = ring[cursor]
            key = (rank, tenant)
            if not self._visited[key]:
                self._deficit[key] += self.quantum_s * self.weight(tenant)
                self._visited[key] = True
            queue = self._queues[key]
            cost_s, grant = queue[0]
            if self._deficit[key] >= cost_s:
                queue.popleft()
                self.pending -= 1
                self._tenant_pending[tenant] -= 1
                self._deficit[key] -= cost_s
                self.served[tenant] = self.served.get(tenant, 0) + 1
                self.served_seconds[tenant] = (
                    self.served_seconds.get(tenant, 0.0) + cost_s)
                if not queue:
                    # Idle tenants forfeit their deficit (standard DRR:
                    # no banking credit while you have nothing queued).
                    del self._queues[key]
                    self._deficit[key] = 0.0
                    self._visited[key] = False
                    ring.pop(cursor)
                    if ring and cursor >= len(ring):
                        self._cursor[rank] = 0
                return grant
            # Visit over: the head costs more than this visit's share.
            self._visited[key] = False
            self._cursor[rank] = (cursor + 1) % len(ring)

    # -- reporting ----------------------------------------------------------------

    def summary(self) -> dict:
        """Deterministic JSON-ready grant accounting."""
        return {
            "quantum_s": self.quantum_s,
            "served": dict(sorted(self.served.items())),
            "served_seconds": dict(sorted(self.served_seconds.items())),
        }


class QosResource(Resource):
    """A :class:`~repro.cluster.kernel.Resource` whose wait queue is a
    :class:`DrrArbiter` instead of a FIFO deque.

    Drop-in at the fleet's cpu and channel stations: same busy-time
    integration, same advisory ``max_queue`` bound (now over the summed
    arbiter backlog), plus per-tenant depth bounds via :meth:`full_for`.
    ``acquire`` and ``request`` queue their ``(wake, argument)`` waiter
    under the request's tenant tag, class, and service cost — the three
    inputs DRR needs that a FIFO ignores — and the inherited ``release``
    pops the arbiter's next grant.
    """

    __slots__ = ("arbiter",)

    def __init__(self, sim, capacity: int = 1, name: str = "",
                 arbiter: DrrArbiter = None, timeline=None,
                 max_queue: int = None):
        super().__init__(sim, capacity, name, timeline, max_queue)
        self.arbiter = arbiter if arbiter is not None else DrrArbiter()
        self._waiters = self.arbiter

    def _enqueue(self, waiter, tenant: str, klass: str, cost_s: float) -> None:
        self.arbiter.enqueue(tenant, klass, cost_s, waiter)

    def full_for(self, tenant: str) -> bool:
        """Station-wide bound OR `tenant`'s per-tenant bound exhausted."""
        return self.full or self.arbiter.tenant_full(tenant)
