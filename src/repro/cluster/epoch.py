"""Batched-epoch primitives for the vector fleet tier.

The event kernel walks one heap entry at a time; at fleet scale (10^6
concurrent users, hundreds of servers) that is tens of millions of heap
operations per simulated second.  This module provides the columnar
replacement: connection state lives in parallel arrays ("struct of
arrays"), and each FIFO station advances a whole epoch cohort with one
vectorized *max-plus scan* instead of per-event churn.

The scan is exact, not approximate.  For a capacity-1 FIFO with arrival
times ``a_j`` and service times ``s_j`` (jobs indexed in grant order),
let ``C_j = s_0 + ... + s_j``.  The classic Lindley recursion

    start_j  = max(a_j, depart_{j-1})
    depart_j = start_j + s_j

unrolls to ``depart_j = C_{j-1} + max_k<=j (a_k - C_{k-1})`` (with the
carry from the previous epoch entering as ``a_{-1} - C_{-2} = depart
of the last prior job``), which is one ``cumsum`` plus one running
``maximum.accumulate`` — both O(n) vectorized.

A capacity-``c`` pool decomposes into ``c`` independent capacity-1
chains: with FIFO grants, job ``i`` waits on the slot freed by job
``i - c``, so the jobs at positions ``i mod c == r`` form chain ``r``.
The decomposition is exact when service times are uniform within the
cohort (every departure order matches grant order) and a bounded-error
approximation for mixed service times — the crosscheck in
``repro.cluster.vector`` quantifies the delta.

Deadline shedding (``repro.overload`` semantics: a job whose grant time
has passed its deadline releases its slot instantly with zero service)
is solved as a fixpoint: shed flags are causal per chain, so iterating
"scan, re-flag, re-scan" converges to the unique sequential solution;
cohorts that do not converge within the iteration cap fall back to the
exact sequential recursion.

Columns are numpy arrays: float64 times, int64 indices, bool masks.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

#: Fixpoint iteration cap before the shed solver falls back to the exact
#: sequential recursion (convergence needs one pass per causal "layer" of
#: shed decisions; deep cascades are rare outside saturated overload runs).
MAX_SHED_PASSES = 32


# -- max-plus FIFO scans ------------------------------------------------------------


def fifo_scan(arrive, service, carry: float):
    """Advance one capacity-1 FIFO over a cohort: (start, depart, carry').

    `arrive` must be sorted in grant (FIFO) order; `carry` is the previous
    cohort's last departure.  Exact — this *is* the Lindley recursion,
    evaluated as cumsum + running max.
    """
    n = len(arrive)
    if n == 0:
        return arrive, arrive, carry
    service = np.asarray(service, dtype=np.float64)
    cumulative = np.cumsum(service)
    shifted = cumulative - service  # C_{j-1}
    level = np.maximum.accumulate(
        np.asarray(arrive, dtype=np.float64) - shifted)
    start = shifted + np.maximum(level, carry)
    depart = start + service
    return start, depart, float(depart[-1])


#: Sentinel: this station has granted heterogeneous service times, so the
#: round-robin chain decomposition is no longer provably first-free.
_MIXED = object()


class Station:
    """One FIFO station drained cohort-at-a-time across epochs.

    Two dispatch models, picked per cohort:

    * **Chains** — capacity ``c`` as ``c`` independent columns; job ``j``
      waits on job ``j - c``.  Fully vectorized (one :func:`fifo_scan` per
      chain), and *exact* precisely when every grant the station has ever
      made took the same service time: with uniform service the server
      that frees first is the one that started first, so round-robin IS
      first-free dispatch.  ``carries`` holds each chain's last departure
      and ``count`` the total jobs ever granted, keeping chain membership
      consistent across epoch boundaries.
    * **First-free heap** — the event kernel's ``Resource`` semantics
      (head of the FIFO takes the first token released), O(n log c)
      sequential.  Used the moment a cohort mixes service times or sheds
      on a multi-server station, where chains would serialise jobs behind
      a slow predecessor while other slots idle — inflating departures
      and backlog by integer factors under burst.

    Capacity-1 stations are a single chain, exact by construction, and
    always take the vector path.

    :meth:`drain` optionally applies deadline shedding with the exact
    dequeue semantics of :class:`repro.cluster.fleet.Fleet`: a job whose
    grant instant is at or past its deadline is shed — it occupies its
    slot for zero seconds (acquire-and-release) and departs immediately.
    """

    __slots__ = ("capacity", "count", "carries", "_uniform")

    def __init__(self, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.count = 0
        self.carries = [0.0] * capacity
        self._uniform = None  # no grants yet; float once seen; _MIXED after

    # -- internal: one full-cohort scan against trial carries ----------------------

    def _scan(self, arrive, service, carries):
        n = len(arrive)
        if self.capacity == 1:
            start, depart, carry = fifo_scan(arrive, service, carries[0])
            return start, depart, [carry]
        # All chains at once: pad the cohort to a multiple of `capacity` and
        # reshape row-major — element (i, j) is cohort position ``i*c + j``,
        # whose chain ``(count + i*c + j) % c`` is constant down each
        # column.  One 2-D Lindley scan (cumsum + running max along axis 0)
        # then advances every chain together.  Padded tail jobs carry
        # arrive=0, service=0: their start clamps to the chain's prior
        # departure and adds nothing, so the last row is exactly each
        # chain's new carry.
        c = self.capacity
        pad = (-n) % c
        arrive_v = np.asarray(arrive, dtype=np.float64)
        service_v = np.asarray(service, dtype=np.float64)
        if pad:
            arrive_v = np.concatenate([arrive_v, np.zeros(pad)])
            service_v = np.concatenate([service_v, np.zeros(pad)])
        arrive_2d = arrive_v.reshape(-1, c)
        service_2d = service_v.reshape(-1, c)
        carry_row = np.asarray(
            [carries[(self.count + j) % c] for j in range(c)])
        cumulative = np.cumsum(service_2d, axis=0)
        shifted = cumulative - service_2d  # C_{j-1} per chain
        level = np.maximum.accumulate(arrive_2d - shifted, axis=0)
        start_2d = shifted + np.maximum(level, carry_row)
        depart_2d = start_2d + service_2d
        out = [0.0] * c
        last_row = depart_2d[-1, :]
        for j in range(c):
            out[(self.count + j) % c] = float(last_row[j])
        return (start_2d.reshape(-1)[:n], depart_2d.reshape(-1)[:n], out)

    def _scan_exact(self, arrive, service, deadline=None):
        """First-free dispatch over `capacity` slots — the event kernel's
        ``Resource`` grant order, exact for heterogeneous service.  Handles
        deadline shedding inline (no fixpoint needed: the recursion is
        causal job-by-job)."""
        n = len(arrive)
        avail = list(self.carries)
        heapq.heapify(avail)
        arrive_l = arrive.tolist()
        service_l = service.tolist()
        deadline_l = None if deadline is None else deadline.tolist()
        start = [0.0] * n
        depart = [0.0] * n
        shed = None if deadline is None else [False] * n
        for j in range(n):
            free = avail[0]
            at = arrive_l[j]
            begin = at if at > free else free
            if deadline_l is not None and begin >= deadline_l[j]:
                shed[j] = True
                held = begin  # acquire-and-release: zero service
            else:
                held = begin + service_l[j]
            heapq.heapreplace(avail, held)
            start[j] = begin
            depart[j] = held
        if shed is not None:
            shed = np.asarray(shed, dtype=np.bool_)
        return np.asarray(start), np.asarray(depart), shed, avail

    def _cohort_uniform(self, service):
        """The cohort's single service time, or None if it mixes values."""
        column = np.asarray(service, dtype=np.float64)
        low, high = float(column.min()), float(column.max())
        return low if low == high else None

    # -- public ---------------------------------------------------------------------

    def drain(self, arrive, service, deadline=None):
        """Grant a cohort through the station: (start, depart, shed).

        `arrive` must already be in grant order (sorted by station-entry
        time).  With `deadline` given (absolute per-job deadlines), jobs
        expired at their grant instant are shed with zero service and
        ``shed`` marks them; otherwise ``shed`` is None.
        """
        n = len(arrive)
        if n == 0:
            return arrive, arrive, (None if deadline is None else arrive)
        if self.capacity > 1:
            uniform = self._cohort_uniform(service)
            chain_exact = (deadline is None and uniform is not None
                           and (self._uniform is None
                                or self._uniform == uniform))
            if not chain_exact:
                self._uniform = _MIXED
                start, depart, shed, carries = self._scan_exact(
                    arrive, service, deadline)
                self.carries = carries
                self.count += n
                return start, depart, shed
            self._uniform = uniform
        if deadline is None:
            start, depart, carries = self._scan(arrive, service, self.carries)
            self.carries = carries
            self.count += n
            return start, depart, None
        shed = np.zeros(n, dtype=np.bool_)
        start = depart = None
        carries = self.carries
        converged = False
        for _ in range(MAX_SHED_PASSES):
            effective = np.where(shed, 0.0, service)
            start, depart, carries = self._scan(arrive, effective, self.carries)
            flagged = start >= deadline
            if np.array_equal(flagged, shed):
                converged = True
                break
            shed = flagged
        if not converged:
            # Only capacity-1 stations get here (wider ones shed in
            # _scan_exact above): the exact per-job recursion.
            start, depart, shed, carries = self._scan_exact(
                arrive, service, deadline)
        self.carries = carries
        self.count += n
        return start, depart, shed


# -- busy-time integrals ------------------------------------------------------------


def overlap_sum(start, depart, lo: float, hi: float) -> float:
    """Total overlap of the busy intervals [start_j, depart_j) with [lo, hi).

    The vector tier's replacement for :meth:`Resource.utilisation`'s
    continuous integral: utilisation over a window is this sum divided by
    ``window * capacity``.  Exact for any interval set.
    """
    if len(start) == 0:
        return 0.0
    clipped = np.minimum(depart, hi) - np.maximum(start, lo)
    return float(np.sum(np.maximum(clipped, 0.0)))


def window_overlaps(start, depart, lo: float, hi: float, windows: int) -> list:
    """Per-window busy overlap across `windows` equal slices of [lo, hi)."""
    if windows < 1 or hi <= lo:
        raise ValueError("need hi > lo and windows >= 1")
    width = (hi - lo) / windows
    return [
        overlap_sum(start, depart, lo + w * width, lo + (w + 1) * width)
        for w in range(windows)
    ]


# -- cohort planners ----------------------------------------------------------------


def water_fill(backlogs, jobs: int, per_job_s: float) -> list:
    """Split `jobs` across targets so projected backlogs level out.

    The cohort form of join-the-shortest-queue: each job adds
    ``per_job_s`` of backlog, and the emptiest targets fill first until
    every chosen target sits at the common water level.  Returns integer
    counts summing to `jobs` (largest-remainder rounding, index
    tie-breaks — fully deterministic).  A backlog of ``math.inf`` marks a
    target as unavailable (down server): it receives zero.
    """
    targets = len(backlogs)
    counts = [0] * targets
    if jobs <= 0:
        return counts
    live = [i for i in range(targets) if backlogs[i] != math.inf]
    if not live:
        raise ValueError("no live targets to place jobs on")
    weight = per_job_s if per_job_s > 0.0 else 1e-12
    order = sorted(live, key=lambda i: (backlogs[i], i))
    level = 0.0
    chosen = 1
    prefix = 0.0
    for k in range(1, len(order) + 1):
        prefix += backlogs[order[k - 1]]
        level = (prefix + jobs * weight) / k
        chosen = k
        if k == len(order) or level <= backlogs[order[k]]:
            break
    shares = [
        max(0.0, (level - backlogs[order[i]]) / weight) for i in range(chosen)
    ]
    floors = [int(s) for s in shares]
    remainder = jobs - sum(floors)
    by_fraction = sorted(
        range(chosen), key=lambda i: (-(shares[i] - floors[i]), order[i]))
    for i in by_fraction[:remainder]:
        floors[i] += 1
    for i in range(chosen):
        counts[order[i]] = floors[i]
    return counts


def interleave_targets(counts):
    """Expand per-target counts into an interleaved assignment column.

    ``counts = [2, 1]`` yields ``[0, 1, 0]`` — each target's jobs spread
    evenly through the cohort (fractional-position merge), so a burst
    split across servers arrives interleaved the way a per-request
    scheduler would send it, not in contiguous runs.
    """
    total = sum(counts)
    if total == 0:
        return np.asarray([], dtype=np.int64)
    sizes = np.asarray(counts, dtype=np.int64)
    targets = np.repeat(np.arange(len(counts), dtype=np.int64), sizes)
    group = np.repeat(sizes, sizes)
    offsets = np.repeat(np.cumsum(sizes) - sizes, sizes)
    within = np.arange(total, dtype=np.int64) - offsets
    position = (within + 0.5) / group
    return targets[np.argsort(position, kind="stable")]
