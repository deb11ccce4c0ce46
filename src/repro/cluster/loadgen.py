"""Load generation: request mixes, arrival processes, open/closed loops.

Two driving disciplines, matching how the paper's testbed and the ROADMAP's
fleet questions differ:

* **Closed loop** (`ClosedLoopLoad`) — the paper's wrk harness: a fixed
  population of persistent connections, each cycling request -> response ->
  think.  Steady-state throughput converges to the bottleneck resource's
  capacity, which is what lets ``tests/cluster/test_crosscheck.py`` pin the
  DES against :class:`repro.sim.server.ServerModel`'s fixed point.
* **Open loop** (`OpenLoopLoad`) — arrivals don't wait for completions, so
  queues can *grow*; this is the discipline under which tail latency and
  DSA saturation are even observable.  Arrival processes: Poisson and a
  two-phase bursty modulation (base rate / burst rate alternating).

Request payloads are described, not materialised: a :class:`RequestMix`
draws (corpus kind, size) pairs, and per-kind DEFLATE ratios are *measured*
once from :func:`repro.workloads.corpus.generate_corpus` (via zlib level 6,
the paper's CPU baseline setting) rather than hard-coded.

All randomness flows through the :class:`random.Random` instances handed in
by the scenario runner — never through module-level ``random`` — which is
what makes identical seeds produce byte-identical runs.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.workloads.corpus import CorpusKind, generate_corpus

#: Ratio of the DSA's fixed-Huffman banked matcher to zlib -6 output size
#: (the seed's calibration: 0.42 vs 0.32 on web corpora).
DSA_RATIO_PENALTY = 0.42 / 0.32

_ratio_cache = {}


def measured_deflate_ratio(kind: CorpusKind, sample_bytes: int = 16384) -> float:
    """zlib level-6 compressed/original ratio of the synthetic corpus.

    Deterministic (the corpus generators are seeded) and cached, so the
    cluster layer's compression ratios track the corpus generators instead
    of drifting constants.
    """
    key = (kind, sample_bytes)
    if key not in _ratio_cache:
        payload = generate_corpus(kind, sample_bytes)
        compressed = zlib.compress(payload, 6)
        _ratio_cache[key] = min(1.0, len(compressed) / len(payload))
    return _ratio_cache[key]


@dataclass(frozen=True)
class MixEntry:
    """One component of a request mix."""

    size: int
    weight: float = 1.0
    kind: CorpusKind = CorpusKind.HTML


class RequestMix:
    """A weighted mixture of (size, corpus kind) request classes."""

    def __init__(self, entries):
        entries = list(entries)
        if not entries:
            raise ValueError("request mix needs at least one entry")
        total = sum(entry.weight for entry in entries)
        if total <= 0:
            raise ValueError("mix weights must sum to a positive value")
        self.entries = entries
        self._cumulative = []
        running = 0.0
        for entry in entries:
            running += entry.weight / total
            self._cumulative.append(running)

    @classmethod
    def fixed(cls, size: int, kind: CorpusKind = CorpusKind.HTML) -> "RequestMix":
        return cls([MixEntry(size=size, kind=kind)])

    @property
    def mean_size(self) -> float:
        total = sum(entry.weight for entry in self.entries)
        return sum(entry.size * entry.weight for entry in self.entries) / total

    def sample_index(self, rng) -> int:
        """Draw one entry *index*, consuming exactly the same RNG stream as
        :meth:`sample` (one ``rng.random()`` call) — the contract the
        vector tier's batched arrival generator relies on to stay
        draw-for-draw identical with the event-tier load generators."""
        point = rng.random()
        for index, cumulative in enumerate(self._cumulative):
            if point <= cumulative:
                return index
        return len(self.entries) - 1

    def sample(self, rng) -> MixEntry:
        """Draw one entry, weighted, from the supplied seeded RNG."""
        return self.entries[self.sample_index(rng)]

    def sample_indices_batch(self, uniforms):
        """Map pre-drawn uniforms in [0, 1) to entry indices (inverse CDF).

        `uniforms` is a numpy array or a sequence of floats; the result is
        an int64 column holding the same indices the scalar
        :meth:`sample_index` would pick for the same draws (one vectorized
        ``searchsorted``).  Used by the closed-loop vector tier, whose
        per-connection draw interleaving cannot (and need not) match the
        event tier's.
        """
        points = np.asarray(uniforms, dtype=np.float64)
        edges = np.asarray(self._cumulative, dtype=np.float64)
        indices = np.searchsorted(edges, points, side="left")
        return np.minimum(indices, len(self.entries) - 1)


@dataclass(slots=True)
class Request:
    """One in-flight request and its measured stage timings."""

    id: int
    connection: int
    size: int
    kind: CorpusKind
    arrive_s: float
    route: str = ""
    server: int = -1
    channel: int = -1
    complete_s: float = -1.0
    waits: dict = field(default_factory=dict)
    #: Absolute deadline stamped at admission (inf: no deadline in force).
    deadline_s: float = math.inf
    #: True when the request was served degraded (brownout).
    brownout: bool = False
    #: "" while in flight / completed; otherwise why the fleet dropped it
    #: ("rejected-admission", "rejected-backpressure", "shed-<station>").
    outcome: str = ""
    #: Replication-hop metadata: the server this message MUST run on
    #: (-1: any — the scheduler chooses), the multi-hop operation it
    #: belongs to, and the hop's role within that operation's DAG
    #: ("query", "propagate", "forward", "read", ...).
    target: int = -1
    op_id: int = -1
    hop: str = ""
    #: Multi-tenant QoS tags: owning tenant ("" — untenanted traffic,
    #: served at default weight) and priority class ("latency" >
    #: "standard" > "batch"; see repro.qos.drr.PRIORITY_CLASSES).
    tenant: str = ""
    klass: str = "standard"

    @property
    def latency_s(self) -> float:
        return self.complete_s - self.arrive_s

    @property
    def met_deadline(self) -> bool:
        """Completed in time (goodput, not just throughput)."""
        return self.complete_s >= 0.0 and self.complete_s <= self.deadline_s


# -- arrival processes -------------------------------------------------------------


class PoissonArrivals:
    """Memoryless arrivals at `rate_rps` requests/second."""

    def __init__(self, rate_rps: float):
        if rate_rps <= 0:
            raise ValueError("rate must be positive")
        self.rate_rps = rate_rps

    def next_gap(self, now: float, rng) -> float:
        """Exponential inter-arrival gap at the fixed rate."""
        return rng.expovariate(self.rate_rps)


class BurstyArrivals:
    """Two-phase modulated Poisson: `base_rps` for `base_s`, then
    `burst_rps` for `burst_s`, repeating.  The canonical way to push a DSA
    queue past saturation for a bounded interval."""

    def __init__(self, base_rps: float, burst_rps: float,
                 base_s: float, burst_s: float):
        if min(base_rps, burst_rps) <= 0 or min(base_s, burst_s) <= 0:
            raise ValueError("rates and phase lengths must be positive")
        self.base_rps = base_rps
        self.burst_rps = burst_rps
        self.base_s = base_s
        self.burst_s = burst_s

    def rate_at(self, now: float) -> float:
        """The instantaneous arrival rate for the phase containing `now`."""
        phase = now % (self.base_s + self.burst_s)
        return self.base_rps if phase < self.base_s else self.burst_rps

    def next_gap(self, now: float, rng) -> float:
        """Exponential gap at the current phase's rate."""
        return rng.expovariate(self.rate_at(now))


class OpenArrivalBatcher:
    """Batched open-loop arrival generation for the vector fleet tier.

    Produces, per epoch, the arrival times and mix-entry indices of every
    request arriving in ``(last, until]`` — consuming the RNG in *exactly*
    the order :class:`OpenLoopLoad` does (gap draw, then mix draw, per
    request), so a vector-tier run and an event-tier run with the same seed
    see the identical arrival realisation.  The one draw that crosses an
    epoch boundary is carried, not re-drawn.
    """

    def __init__(self, arrivals, mix: RequestMix, rng):
        self.arrivals = arrivals
        self.mix = mix
        self.rng = rng
        self._now = 0.0
        self._carry = None  # (time, entry_index) overflowing the last epoch
        self.generated = 0

    def next_batch(self, until: float):
        """(times, entry_indices) for every arrival at or before `until`."""
        times, entries = [], []
        if self._carry is not None:
            time, entry = self._carry
            if time > until:
                return times, entries
            times.append(time)
            entries.append(entry)
            self._carry = None
        while True:
            self._now += self.arrivals.next_gap(self._now, self.rng)
            entry = self.mix.sample_index(self.rng)
            if self._now > until:
                self._carry = (self._now, entry)
                break
            times.append(self._now)
            entries.append(entry)
        self.generated += len(times)
        return times, entries


# -- load drivers -----------------------------------------------------------------


class _LoadBase:
    """Shared bookkeeping: request numbering and a completion hook.

    `tenant`/`klass` tag every generated request for the QoS layer; the
    RNG label stays exactly ``"loadgen"`` for untenanted loads (the
    pre-QoS byte-identical streams) and becomes ``"loadgen.<tenant>"``
    per tenant so co-resident tenant loads draw independent streams.
    `id_start` offsets request numbering so ids stay unique fleet-wide
    when several per-tenant generators run side by side (the static
    scheduler hashes on id).
    """

    def __init__(self, sim, fleet, mix: RequestMix, tenant: str = "",
                 klass: str = "standard", id_start: int = 0):
        self.sim = sim
        self.fleet = fleet
        self.mix = mix
        self.tenant = tenant
        self.klass = klass
        label = "loadgen" if not tenant else "loadgen.%s" % tenant
        self.rng = sim.fork_rng(label)
        self._next_id = id_start

    def _make_request(self, connection: int) -> Request:
        entry = self.mix.sample(self.rng)
        request = Request(
            id=self._next_id,
            connection=connection,
            size=entry.size,
            kind=entry.kind,
            arrive_s=self.sim.now,
            tenant=self.tenant,
            klass=self.klass,
        )
        self._next_id += 1
        return request


class OpenLoopLoad(_LoadBase):
    """Arrivals fire on the arrival process's clock, never waiting for
    responses — the generator that can actually overload the fleet.

    Two kernel callbacks, no process: :meth:`_next_arrival` draws the gap
    and sleeps it (:meth:`~repro.cluster.kernel.Simulator.sleep`, two
    events like a process sleep), :meth:`_arrive` submits and draws the
    next gap.
    """

    def __init__(self, sim, fleet, mix: RequestMix, arrivals,
                 tenant: str = "", klass: str = "standard", id_start: int = 0):
        super().__init__(sim, fleet, mix, tenant, klass, id_start)
        self.arrivals = arrivals

    def start(self) -> None:
        """Begin generating arrivals (call once, before Simulator.run)."""
        self.sim._ready.append((self._next_arrival, None))

    def _next_arrival(self, _) -> None:
        sim = self.sim
        sim.sleep(self.arrivals.next_gap(sim.now, self.rng), self._arrive)

    def _arrive(self, _) -> None:
        self.fleet.submit(self._make_request(connection=-1))
        self._next_arrival(None)


class ClosedLoopLoad(_LoadBase):
    """A fixed population of connections, each request->response->think.

    Connections start staggered over :attr:`STAGGER_S`
    (deterministically, by connection index) so the opening instant
    doesn't imprint a lockstep pattern on the whole run.  Each connection
    is a chain of kernel callbacks keyed by its index: open, issue a
    request, and on its completion event think and issue the next.  The
    stagger, the reject backoff and the think time are each a
    :meth:`~repro.cluster.kernel.Simulator.sleep`.
    """

    #: Seconds the connections' first requests are spread over (the
    #: vector tier staggers its closed loop the same way).
    STAGGER_S = 1e-4
    #: Pause before a rejected request is retried, so a think-free loop
    #: cannot spin at one instant.
    REJECT_BACKOFF_S = 1e-3

    def __init__(self, sim, fleet, mix: RequestMix, connections: int,
                 think_s: float = 0.0, tenant: str = "",
                 klass: str = "standard", id_start: int = 0):
        super().__init__(sim, fleet, mix, tenant, klass, id_start)
        if connections < 1:
            raise ValueError("need at least one connection")
        self.connections = connections
        self.think_s = think_s

    def start(self) -> None:
        """Open every connection (call before Simulator.run)."""
        post = self.sim._ready.append
        for connection in range(self.connections):
            post((self._open, connection))

    def _open(self, connection: int) -> None:
        self.sim.sleep(self.STAGGER_S * connection / self.connections,
                       self._issue, connection)

    def _issue(self, connection: int) -> None:
        done = self.fleet.submit(self._make_request(connection))
        if done is None:
            # Rejected at admission or by backpressure: back off, retry.
            self.sim.sleep(self.REJECT_BACKOFF_S, self._issue, connection)
        else:
            done.wait(self._completed)

    def _completed(self, done) -> None:
        connection = done.value.connection
        if self.think_s > 0:
            self.sim.sleep(self.rng.expovariate(1.0 / self.think_s),
                           self._issue, connection)
        else:
            self._issue(connection)
