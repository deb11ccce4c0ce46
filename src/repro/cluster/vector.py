"""The vector fleet tier: batched-epoch, struct-of-arrays simulation.

``run_vector_scenario`` simulates the *same* :class:`ClusterScenario` the
event tier runs, but advances time in fixed epochs: every request arriving
within an epoch is a columnar cohort, and each FIFO station (CPU pool,
memory bus, per-channel DSA, NIC) advances its cohort with one max-plus
scan (:mod:`repro.cluster.epoch`) instead of ~16 heap events per request.
Pricing (:class:`ServiceProfile` / :class:`RouteCosts`), placement policy
names and the overload tier's deadline/shed semantics are *shared* with
the event tier; the Observation-2 spill uses the same marginal-cost rule
as :func:`~repro.cluster.sched.spill_decision`, applied to projected
end-of-epoch waits (``_VectorFleet._spill_plan``) rather than by calling
it.  The two tiers disagree only where batching genuinely loses
information.

Fidelity contract (crosschecked by :func:`crosscheck_tiers`):

* **exact** — open-loop arrivals (draw-for-draw the event tier's RNG
  stream via :class:`OpenArrivalBatcher`), static placement, single-class
  mixes, FIFO waits, deadline shedding, measurement-window accounting,
  busy-time integrals;
* **bounded delta** — least-loaded / adaptive-spill placement (the
  per-request backlog race becomes a per-epoch water-fill plus the
  cohort form of the marginal-cost spill rule), multi-class service interleaving (capacity-c
  chain decomposition), closed-loop arrival draws (same distributions,
  independent stream);
* **unsupported** (raises ``ValueError``) — CoDel admission, bounded
  queues, brownout, Chrome-trace emission: behaviours defined by
  event-granular feedback that an epoch tier cannot honestly batch.

Scale: connection state is a handful of parallel columns, so a
10^6-connection, 100-server sweep is ~10 MB of arrays and completes in
seconds.  The perf gate times this tier's own ``fleet_vector`` row against
the parent commit and crosschecks it with the event tier
(``benchmarks/perf/cluster_bench.py``).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from repro.cluster.chaos import epoch_fault_state, reroute_down
from repro.cluster.epoch import (
    Station,
    interleave_targets,
    overlap_sum,
    water_fill,
    window_overlaps,
)
from repro.cluster.fleet import DSA_PLACEMENTS, ServiceProfile
from repro.cluster.kernel import Simulator
from repro.cluster.loadgen import ClosedLoopLoad, OpenArrivalBatcher
from repro.cluster.metrics import MetricsRegistry
from repro.overload.policy import OverloadConfig, OverloadPolicy


def _unsupported(scenario) -> None:
    """Reject scenario knobs whose semantics need event-granular feedback."""
    if scenario.trace_path:
        raise ValueError("vector tier cannot emit Chrome traces; use tier='event'")
    if scenario.admission != "none":
        raise ValueError("vector tier does not model CoDel admission; "
                         "use tier='event'")
    if scenario.dsa_queue_limit is not None or scenario.cpu_queue_limit is not None:
        raise ValueError("vector tier does not model bounded queues; "
                         "use tier='event'")
    if scenario.brownout_factor != 1.0:
        raise ValueError("vector tier does not model brownout; use tier='event'")
    if scenario.mode not in ("closed", "open"):
        raise ValueError("mode must be 'closed' or 'open'")
    if min(scenario.servers, scenario.channels, scenario.threads) < 1:
        raise ValueError("servers, channels, and threads must all be >= 1")
    if scenario.warmup_s >= scenario.duration_s:
        raise ValueError("warmup must be shorter than the run")
    if scenario.epoch_s is not None and not scenario.epoch_s > 0:
        raise ValueError("epoch_s must be > 0 (None picks duration / 50)")


class _RouteTable:
    """Route costs as columns indexed by mix-entry id (one row per class).

    Index ``[0]`` is the normal (offload) route, ``[1]`` the CPU-onload
    spill route, both priced by the *same* :class:`ServiceProfile` the
    event tier uses.
    """

    def __init__(self, profile: ServiceProfile, mix):
        def column(attr, spill, dtype=np.float64):
            return np.asarray(
                [getattr(profile.route(e.size, e.kind, spill=spill), attr)
                 for e in mix.entries], dtype=dtype)

        self.cpu = (column("cpu_seconds", False), column("cpu_seconds", True))
        self.mem = (column("mem_seconds", False), column("mem_seconds", True))
        self.link = (column("link_seconds", False), column("link_seconds", True))
        self.bytes = (column("output_bytes", False, np.int64),
                      column("output_bytes", True, np.int64))
        self.dsa = column("dsa_seconds", False)  # spill route never queues DSA
        # Stacked [offload-rows | spill-rows] twins: one gather with index
        # ``entry + nclasses * spill`` replaces a where() + two takes per
        # column in the hot cohort path.
        self.nclasses = len(mix.entries)
        self.cpu2 = np.concatenate(self.cpu)
        self.mem2 = np.concatenate(self.mem)
        self.link2 = np.concatenate(self.link)
        self.bytes2 = np.concatenate(self.bytes)
        self.dsa2 = np.concatenate([self.dsa, np.zeros(self.nclasses)])
        total = sum(e.weight for e in mix.entries)
        weights = [e.weight / total for e in mix.entries]

        def mean(col):
            return sum(w * v for w, v in zip(weights, col.tolist()))

        self.mean_cpu_off = mean(self.cpu[0])
        self.mean_cpu_on = mean(self.cpu[1])
        self.mean_dsa = mean(self.dsa)


class _Backlog:
    """Outstanding station work, summed at epoch starts.

    The vector tier's stand-in for the event tier's per-request
    ``backlog_seconds`` counters: a job contributes its service time from
    submission until its station departure, so sampling at an epoch start
    sees exactly what the event tier's scheduler would.

    ``at`` is only ever queried at epoch boundaries, and monotonically —
    so costs are bucketed at ``add`` time against the runner's boundary
    grid (a job lands in the first boundary at or after its departure)
    and a query is an amortized-O(1) cursor advance over expired buckets.
    The grid holds the *same float objects* the runner queries with, so
    "departed by boundary t" matches the exact comparison ``depart <= t``
    a per-job heap would make: for a boundary t, ``depart <= t`` iff the
    first boundary >= depart is itself <= t."""

    __slots__ = ("_grid", "_bins", "_cursor", "_total")

    def __init__(self):
        self._grid = []  # ascending epoch boundaries (set before first add)
        self._bins = []  # cost landing in each boundary (+1 overflow slot)
        self._cursor = 0
        self._total = 0.0

    def set_grid(self, grid) -> None:
        """Install the run's epoch-boundary times (ascending floats)."""
        self._grid = np.asarray(grid, dtype=np.float64)
        self._bins = np.zeros(len(grid) + 1)
        self._cursor = 0
        self._total = 0.0

    def add(self, departs, costs) -> None:
        n = len(departs)
        if n == 0:
            return
        index = np.searchsorted(self._grid, departs, side="left")
        self._bins += np.bincount(index, weights=costs,
                                  minlength=len(self._bins))
        self._total += float(np.sum(costs))

    def at(self, t: float) -> float:
        """Backlog seconds still outstanding at time `t` (prunes the past)."""
        grid, bins = self._grid, self._bins
        cursor, total = self._cursor, self._total
        while cursor < len(grid) and grid[cursor] <= t:
            total -= float(bins[cursor])
            cursor += 1
        self._cursor, self._total = cursor, total
        return total


class _VectorServer:
    """One server's stations, backlog trackers, and busy-interval logs.

    Busy intervals are appended per cohort and integrated *once* at report
    time (:func:`_station_busy`) — a (start, depart) pair is immutable the
    moment the station scan produces it, so deferring the overlap integrals
    removes thousands of tiny per-epoch reductions from the hot loop."""

    def __init__(self, threads: int, channels: int):
        self.cpu = Station(threads)
        self.membus = Station(1)
        self.link = Station(1)
        self.dsa = [Station(1) for _ in range(channels)]
        self.cpu_backlog = _Backlog()
        self.chan_backlog = [_Backlog() for _ in range(channels)]
        self.cpu_intervals = []  # (start, depart) column pairs
        self.chan_intervals = [[] for _ in range(channels)]


class _VectorFleet:
    """Counters, histograms, and the per-wave cohort pipeline."""

    def __init__(self, scenario, profile: ServiceProfile, mix,
                 registry: MetricsRegistry):
        self.profile = profile
        self.mix = mix
        self.table = _RouteTable(profile, mix)
        self.nservers = scenario.servers
        self.nchannels = scenario.channels
        self.threads = scenario.threads
        self.scheduler = scenario.scheduler
        self.spill_factor = scenario.spill_factor
        self.warmup = scenario.warmup_s
        self.duration = scenario.duration_s
        self.deadline_s = scenario.deadline_s
        self.shed_on = scenario.deadline_s is not None and scenario.shed_expired
        self.can_spill = (profile.can_spill
                          and profile.placement in DSA_PLACEMENTS
                          and self.scheduler == "adaptive-spill")
        self.servers = [
            _VectorServer(scenario.threads, scenario.channels)
            for _ in range(scenario.servers)
        ]
        self.registry = registry
        self.latency = registry.histogram("latency_s")
        self.spill_latency = registry.histogram("latency_spilled_s")
        self.wait_cpu = registry.histogram("wait_cpu_s")
        self.wait_dsa = registry.histogram("wait_dsa_s")
        # Histogram samples are batched per run: cohorts append raw sample
        # columns here and :meth:`flush_samples` bulk-ingests each series
        # once, instead of paying record_many's fixed cost every cohort.
        self._samples = {name: [] for name in
                         ("latency", "spill_latency", "wait_cpu", "wait_dsa")}
        self.completed = registry.counter("completed")
        self.submitted = registry.counter("submitted")
        self.spilled = registry.counter("spilled")
        self.dsa_served = registry.counter("dsa_served")
        self.bytes_out = registry.counter("bytes_out")
        self.events = 0
        if self.deadline_s is not None:
            self.deadline_met = registry.counter("deadline_met")
            self.deadline_missed = registry.counter("deadline_missed")
            self.shed = {
                station: registry.counter("shed_" + station)
                for station in ("cpu", "dsa", "link")
            }

    # -- helpers ---------------------------------------------------------------------

    def set_epoch_grid(self, grid) -> None:
        """Give every backlog tracker the run's epoch-boundary times."""
        for server in self.servers:
            server.cpu_backlog.set_grid(grid)
            for backlog in server.chan_backlog:
                backlog.set_grid(grid)

    def _in_window(self, times):
        return np.logical_and(times >= self.warmup, times <= self.duration)

    def _place_servers(self, t0: float, n: int, keys, down):
        """The server column for a cohort (and the channel column, static)."""
        total = self.nservers * self.nchannels
        if self.scheduler == "static":
            # Exactly StaticScheduler.assign: hash the connection (closed
            # loop) or request id (open loop) to a fixed (server, channel).
            slot = keys % total
            server_col = slot // self.nchannels
            channel_col = slot % self.nchannels
            if down:
                remap = np.asarray(
                    [reroute_down(s, down, self.nservers)
                     for s in range(self.nservers)], dtype=np.int64)
                server_col = remap[server_col]
            return server_col, channel_col
        # least-loaded / adaptive-spill: cohort water-fill over the same
        # backlog-seconds signal the per-request schedulers race on.
        backlogs = []
        for index, server in enumerate(self.servers):
            if index in down:
                backlogs.append(math.inf)
                continue
            backlogs.append(server.cpu_backlog.at(t0)
                            + sum(b.at(t0) for b in server.chan_backlog))
        per_job = self.table.mean_cpu_off + self.table.mean_dsa
        counts = water_fill(backlogs, n, per_job)
        return interleave_targets(counts), None

    def _spill_plan(self, server: _VectorServer, t0: float, horizon: float,
                    entries):
        """Which of a server's cohort the Observation-2 rule spills, as a
        boolean mask in cohort order.

        The event tier's rule is per *request*: job j spills iff the
        DSA-vs-CPU wait gap exceeds ``spill_factor * delta_j`` where
        ``delta_j = cpu(onload_j) - cpu(offload_j)`` is that job's own
        onload premium (:func:`repro.cluster.sched.spill_decision`).  With
        a heterogeneous mix the rule is therefore *selective* — cheap-to-
        onload classes spill long before expensive ones — so a single
        mean-delta threshold over-spills by integer factors under burst.

        The cohort plan reproduces the selectivity: sort jobs by their own
        delta (cheapest first) and find the equilibrium prefix.  Spilling
        the k cheapest jobs removes their DSA work from the accelerator
        queues and adds their deltas to the worker pool; prefix sums give
        the projected end-of-epoch waits as a function of k, with the
        `horizon` of drain each side earns floored at zero (an idle CPU
        stops draining, a backed-up DSA doesn't — the floors are why the
        drain terms don't cancel).  Job k spills iff the projected gap
        still exceeds its own ``spill_factor * delta_k``; the first job
        that declines ends the prefix, exactly as the per-request rule
        stops firing once the gap closes."""
        table = self.table
        m = len(entries)
        cpu_b = server.cpu_backlog.at(t0)
        dsa_b = sum(b.at(t0) for b in server.chan_backlog)
        off = table.cpu[0][entries]
        on = table.cpu[1][entries]
        dsa = table.dsa[entries]
        delta = np.maximum(on - off, 0.0)
        # Jobs whose offload route never queues the DSA can't spill; an
        # infinite delta parks them at the end of the sort and the gap
        # test can never pick them.
        delta = np.where(dsa > 0.0, delta, math.inf)
        order = np.argsort(delta, kind="stable")
        d_sorted = delta[order]
        dsa_sorted = dsa[order]
        removed = np.cumsum(dsa_sorted) - dsa_sorted  # exclusive
        added = np.cumsum(d_sorted) - d_sorted
        base_dsa = dsa_b + float(np.sum(dsa))
        base_cpu = cpu_b + float(np.sum(off))
        dsa_wait = np.maximum(
            (base_dsa - removed) * (1.0 / self.nchannels) - horizon, 0.0)
        cpu_wait = (np.maximum(base_cpu + added - horizon * self.threads, 0.0)
                    * (1.0 / self.threads))
        fire = dsa_wait > cpu_wait + d_sorted * self.spill_factor
        declined = np.nonzero(np.logical_not(fire))[0]
        picks = int(declined[0]) if len(declined) else m
        spill = np.zeros(m, dtype=np.bool_)
        spill[order[:picks]] = True
        return spill

    # -- the cohort pipeline -----------------------------------------------------

    def serve_wave(self, t0: float, t1: float, arrive, entries, keys,
                   down, wedged):
        """Run one arrival cohort through the rack; returns per-job finish
        times (completion, or the instant the job was shed).  ``t1`` is the
        epoch's end — the drain horizon the spill planner projects over."""
        n = len(arrive)
        finish = np.full(n, math.inf)
        server_col, channel_col = self._place_servers(t0, n, keys, down)
        # Group by server with one stable sort; within a group the cohort
        # stays in arrival order (= station grant order).
        counts = np.bincount(server_col, minlength=self.nservers).tolist()
        order = np.argsort(server_col, kind="stable")
        offset = 0
        for index in range(self.nservers):
            m = counts[index]
            if m == 0:
                continue
            cohort = order[offset:offset + m]
            offset += m
            finish[cohort] = self._serve_cohort(
                index, t0, t1, arrive[cohort], entries[cohort],
                None if channel_col is None else channel_col[cohort],
                wedged)
        return finish

    def _serve_cohort(self, index: int, t0: float, t1: float, arrive,
                      entries, channel_col, wedged):
        """One server's four-station pipeline over its cohort slice."""
        server = self.servers[index]
        table = self.table
        m = len(arrive)
        # -- routes + spill split
        spill = np.zeros(m, dtype=np.bool_)
        if self.can_spill and table.mean_dsa > 0.0:
            spill = self._spill_plan(server, t0, t1 - t0, entries)
        row = entries + np.where(spill, table.nclasses, 0)
        cpu_s = table.cpu2[row]
        mem_s = table.mem2[row]
        link_s = table.link2[row]
        out_b = table.bytes2[row]
        dsa_s = table.dsa2[row]
        deadline = None
        if self.deadline_s is not None:
            deadline = arrive + self.deadline_s
        shed_deadline = deadline if self.shed_on else None
        measured = self._in_window(arrive)
        self.submitted.inc(int(np.count_nonzero(measured)))
        self.spilled.inc(int(np.count_nonzero(np.logical_and(spill, measured))))
        # -- CPU pool
        start_cpu, dep_cpu, shed_cpu = server.cpu.drain(
            arrive, cpu_s, shed_deadline)
        self.events += m
        server.cpu_intervals.append((start_cpu, dep_cpu))
        server.cpu_backlog.add(dep_cpu, cpu_s)
        finish = dep_cpu.copy()
        if shed_cpu is not None:
            self.shed["cpu"].inc(int(np.count_nonzero(np.logical_and(
                shed_cpu, self._in_window(start_cpu)))))
            alive = np.nonzero(np.logical_not(shed_cpu))[0]
        else:
            alive = np.arange(m)
        # -- memory bus (grant order = CPU departure order)
        pos = alive[np.argsort(dep_cpu[alive], kind="stable")]
        _, dep_mem, _ = server.membus.drain(dep_cpu[pos], mem_s[pos], None)
        self.events += len(pos)
        finish[pos] = dep_mem
        # -- DSA channels (dep_mem is already non-decreasing: grant order)
        routed = dsa_s[pos] > 0.0
        dsa_pick = np.nonzero(routed)[0]
        direct = np.nonzero(np.logical_not(routed))[0]
        dsa_wait = np.zeros(m)
        link_pos = [pos[direct]]
        link_arrive = [dep_mem[direct]]
        if len(dsa_pick) > 0:
            dsa_pos = pos[dsa_pick]
            dsa_arrive = dep_mem[dsa_pick]
            if channel_col is not None:
                assigned = channel_col[dsa_pos]
            else:
                chan_counts = water_fill(
                    [b.at(t0) for b in server.chan_backlog],
                    len(dsa_pick), table.mean_dsa)
                assigned = interleave_targets(chan_counts)
            # Group by channel with one stable sort instead of an
            # equality scan per channel.
            chan_order = np.argsort(assigned, kind="stable")
            chan_counts_all = np.bincount(
                assigned, minlength=self.nchannels).tolist()
            chan_offset = 0
            for chan in range(self.nchannels):
                span = chan_counts_all[chan]
                if span == 0:
                    continue
                sel = chan_order[chan_offset:chan_offset + span]
                chan_offset += span
                c_pos = dsa_pos[sel]
                c_arrive = dsa_arrive[sel]
                service = dsa_s[c_pos]
                factor = wedged.get((index, chan), 1.0)
                if factor != 1.0:
                    service = service * factor
                c_deadline = (None if shed_deadline is None
                              else shed_deadline[c_pos])
                start_d, dep_d, shed_d = server.dsa[chan].drain(
                    c_arrive, service, c_deadline)
                self.events += len(sel)
                dsa_wait[c_pos] = start_d - c_arrive
                finish[c_pos] = dep_d
                server.chan_intervals[chan].append((start_d, dep_d))
                server.chan_backlog[chan].add(dep_d, service)
                if shed_d is not None:
                    self.shed["dsa"].inc(int(np.count_nonzero(np.logical_and(
                        shed_d, self._in_window(start_d)))))
                    ok = np.nonzero(np.logical_not(shed_d))[0]
                else:
                    ok = np.arange(len(sel))
                dep_ok = dep_d[ok]
                self.dsa_served.inc(
                    int(np.count_nonzero(self._in_window(dep_ok))))
                link_pos.append(c_pos[ok])
                link_arrive.append(dep_ok)
        # -- link / NIC (merge direct + per-channel survivors by time)
        l_pos = np.concatenate(link_pos)
        l_arrive = np.concatenate(link_arrive)
        merge = np.argsort(l_arrive, kind="stable")
        l_pos = l_pos[merge]
        l_arrive = l_arrive[merge]
        l_deadline = (None if shed_deadline is None
                      else shed_deadline[l_pos])
        start_l, dep_l, shed_l = server.link.drain(
            l_arrive, link_s[l_pos], l_deadline)
        self.events += len(l_pos)
        finish[l_pos] = dep_l
        if shed_l is not None:
            self.shed["link"].inc(int(np.count_nonzero(np.logical_and(
                shed_l, self._in_window(start_l)))))
            served = np.nonzero(np.logical_not(shed_l))[0]
        else:
            served = np.arange(len(l_pos))
        # -- completion accounting, identical window semantics to Fleet
        dep_served = dep_l[served]
        done = np.nonzero(self._in_window(dep_served))[0]
        comp_pos = l_pos[served][done]
        comp_t = dep_served[done]
        if len(comp_pos) > 0:
            self.completed.inc(len(comp_pos))
            self.bytes_out.inc(int(np.sum(out_b[comp_pos])))
            comp_arrive = arrive[comp_pos]
            latency = comp_t - comp_arrive
            self._samples["latency"].append(latency)
            self._samples["wait_cpu"].append(start_cpu[comp_pos] - comp_arrive)
            spilled = np.nonzero(spill[comp_pos])[0]
            if len(spilled) > 0:
                self._samples["spill_latency"].append(latency[spilled])
            with_dsa = np.nonzero(dsa_s[comp_pos] > 0.0)[0]
            if len(with_dsa) > 0:
                self._samples["wait_dsa"].append(dsa_wait[comp_pos][with_dsa])
            if self.deadline_s is not None:
                met = int(np.count_nonzero(comp_t <= deadline[comp_pos]))
                self.deadline_met.inc(met)
                self.deadline_missed.inc(len(comp_pos) - met)
        return finish

    def flush_samples(self) -> None:
        """Bulk-ingest every deferred histogram sample column (idempotent)."""
        sinks = {"latency": self.latency, "spill_latency": self.spill_latency,
                 "wait_cpu": self.wait_cpu, "wait_dsa": self.wait_dsa}
        for name, parts in self._samples.items():
            if parts:
                sinks[name].record_many(np.concatenate(parts))
                parts.clear()


def _station_busy(pairs, warmup: float, duration: float, windows: int = 0):
    """Busy seconds (and optional per-window split) for logged intervals."""
    if not pairs:
        return 0.0, [0.0] * windows
    start = np.concatenate([p[0] for p in pairs])
    depart = np.concatenate([p[1] for p in pairs])
    busy = overlap_sum(start, depart, warmup, duration)
    if windows <= 0:
        return busy, []
    return busy, window_overlaps(start, depart, warmup, duration, windows)


def _batch_open_arrivals(scenario, arrivals, mix, load_rng, duration: float):
    """Every open-loop arrival in (0, duration] as numpy columns.

    The "batch" arrival stream: the same stochastic process the event
    tier draws per request (Poisson, or modulated Poisson realised by
    thinning a peak-rate stream), generated a whole run at a time with
    bulk numpy draws.  NOT draw-for-draw identical to the event tier —
    crosschecks use the default "replay" stream; this one exists so
    headline perf runs aren't bottlenecked on a per-request pure-Python
    RNG loop.  Deterministic given the scenario seed.
    """
    from repro.cluster.loadgen import BurstyArrivals, PoissonArrivals

    rng = np.random.default_rng(load_rng.getrandbits(64))
    if isinstance(arrivals, PoissonArrivals):
        peak = arrivals.rate_rps
    elif isinstance(arrivals, BurstyArrivals):
        peak = max(arrivals.base_rps, arrivals.burst_rps)
    else:
        raise ValueError(
            "arrival_stream='batch' supports poisson/bursty arrivals, "
            "not %r" % type(arrivals).__name__)
    chunks = []
    now = 0.0
    size = max(1024, int(peak * duration * 0.6))
    while now <= duration:
        t = now + np.cumsum(rng.exponential(1.0 / peak, size=size))
        chunks.append(t)
        now = float(t[-1])
    times = np.concatenate(chunks)
    times = times[times <= duration]
    if isinstance(arrivals, BurstyArrivals):
        phase = times % (arrivals.base_s + arrivals.burst_s)
        rate = np.where(phase < arrivals.base_s,
                        arrivals.base_rps, arrivals.burst_rps)
        times = times[rng.random(times.size) * peak < rate]
    return times, mix.sample_indices_batch(rng.random(times.size))


# -- the runner ---------------------------------------------------------------------


def run_vector_scenario(scenario, fault_windows=None,
                        registry: MetricsRegistry = None):
    """Simulate `scenario` on the vector tier; returns a ClusterReport.

    `fault_windows` takes :class:`repro.cluster.chaos.FaultWindow`-style
    entries (node_down / channel_wedge), applied per epoch via
    :func:`epoch_fault_state`.  `registry` (optional) receives the raw
    histograms/counters — the crosscheck uses it to compare bucket-level
    distributions, not just summaries.
    """
    from repro.cluster.scenario import (TIMELINE_WINDOWS, ClusterReport,
                                        _build_arrivals)

    _unsupported(scenario)
    profile = scenario.build_profile()
    mix = scenario.resolved_mix()
    registry = registry if registry is not None else MetricsRegistry()
    # RNG derivation mirrors run_scenario's fork order exactly: "sched" is
    # forked first (and discarded — vector policies are deterministic), so
    # the "loadgen" child sees the identical seed stream.
    seed_source = Simulator(scenario.seed)
    seed_source.fork_rng("sched")
    load_rng = seed_source.fork_rng("loadgen")
    fleet = _VectorFleet(scenario, profile, mix, registry)
    duration = scenario.duration_s
    epoch = scenario.epoch_s or duration / 50.0  # 0 fails _unsupported
    fault_windows = fault_windows or ()
    # Pre-walk the epoch grid with the loop's own arithmetic so backlog
    # bucketing compares against the exact floats `at` will be called with.
    grid = []
    t_walk = 0.0
    while t_walk < duration:
        t_walk = min(duration, t_walk + epoch)
        grid.append(t_walk)
    fleet.set_epoch_grid(grid)

    if scenario.mode == "open":
        capacity = profile.model_metrics.rps * scenario.servers
        stream = scenario.arrival_stream
        if stream not in ("replay", "batch"):
            raise ValueError("arrival_stream must be 'replay' or 'batch'")
        batcher = all_times = all_entries = None
        cursor = 0
        if stream == "batch":
            all_times, all_entries = _batch_open_arrivals(
                scenario, _build_arrivals(scenario, capacity), mix,
                load_rng, duration)
        else:
            batcher = OpenArrivalBatcher(
                _build_arrivals(scenario, capacity), mix, load_rng)
        next_id = 0
        t0 = 0.0
        while t0 < duration:
            t1 = min(duration, t0 + epoch)
            down, wedged = epoch_fault_state(fault_windows, t0, t1)
            if batcher is not None:
                times, entry_ids = batcher.next_batch(t1)
                arrive = np.asarray(times, dtype=np.float64)
                entries = np.asarray(entry_ids, dtype=np.int64)
            else:
                hi = int(np.searchsorted(all_times, t1, side="right"))
                arrive = all_times[cursor:hi]
                entries = all_entries[cursor:hi]
                cursor = hi
            if len(arrive):
                keys = np.arange(len(arrive), dtype=np.int64) + next_id
                next_id += len(arrive)
                fleet.serve_wave(t0, t1, arrive, entries, keys, down, wedged)
            t0 = t1
    else:
        count = scenario.connections
        if count < 1:
            raise ValueError("need at least one connection")
        next_arrival = (ClosedLoopLoad.STAGGER_S
                        * np.arange(count, dtype=np.float64) / count)
        draw = np.random.default_rng(load_rng.getrandbits(64))
        single = len(mix.entries) == 1
        think = scenario.think_s
        t0 = 0.0
        while t0 < duration:
            t1 = min(duration, t0 + epoch)
            down, wedged = epoch_fault_state(fault_windows, t0, t1)
            while True:
                ready = np.nonzero(next_arrival <= t1)[0]
                if len(ready) == 0:
                    break
                times = next_arrival[ready]
                order = np.argsort(times, kind="stable")
                ready = ready[order]
                times = times[order]
                m = len(ready)
                if single:
                    entries = np.zeros(m, dtype=np.int64)
                else:
                    entries = mix.sample_indices_batch(draw.random(m))
                finish = fleet.serve_wave(t0, t1, times, entries, ready,
                                          down, wedged)
                if think > 0.0:
                    finish = finish + draw.exponential(think, m)
                next_arrival[ready] = finish
            t0 = t1

    # -- report (field-for-field the event tier's shape)
    fleet.flush_samples()
    window = scenario.duration_s - scenario.warmup_s
    width = window / TIMELINE_WINDOWS
    servers = fleet.servers
    chan_util, chan_timeline, cpu_util = [], [], []
    for server in servers:
        row_util, row_timeline = [], []
        for chan in range(scenario.channels):
            busy, per_window = _station_busy(
                server.chan_intervals[chan], scenario.warmup_s,
                scenario.duration_s, TIMELINE_WINDOWS)
            row_util.append(busy / window)
            row_timeline.append([b / width for b in per_window])
        chan_util.append(row_util)
        chan_timeline.append(row_timeline)
        cpu_busy, _ = _station_busy(server.cpu_intervals,
                                    scenario.warmup_s, scenario.duration_s)
        cpu_util.append(cpu_busy / (window * scenario.threads))
    overload = None
    if scenario.deadline_s is not None:
        policy = OverloadPolicy(OverloadConfig(
            deadline_s=scenario.deadline_s,
            shed_expired=scenario.shed_expired))
        overload = policy.summary()
        overload.update({
            "goodput_rps": (fleet.deadline_met.value / window
                            if window > 0 else 0.0),
            "deadline_met": fleet.deadline_met.value,
            "deadline_missed": fleet.deadline_missed.value,
            "rejected_admission": 0,
            "rejected_backpressure": 0,
            "brownouts": 0,
            "shed": {name: counter.value
                     for name, counter in sorted(fleet.shed.items())},
        })
    return ClusterReport(
        scenario={
            "servers": scenario.servers,
            "channels": scenario.channels,
            "threads": scenario.threads,
            "ulp": scenario.ulp,
            "placement": profile.placement.value,
            "mode": scenario.mode,
            "arrival": scenario.arrival,
            "connections": scenario.connections,
            "think_s": scenario.think_s,
            "scheduler": scenario.scheduler,
            "duration_s": scenario.duration_s,
            "warmup_s": scenario.warmup_s,
            "seed": scenario.seed,
            "tier": "vector",
            "epoch_s": epoch,
        },
        rps=fleet.completed.value / window,
        completed=fleet.completed.value,
        submitted=fleet.submitted.value,
        spilled=fleet.spilled.value,
        dsa_served=fleet.dsa_served.value,
        bytes_out=fleet.bytes_out.value,
        latency=fleet.latency.summary(),
        wait_cpu=fleet.wait_cpu.summary(),
        wait_dsa=fleet.wait_dsa.summary(),
        channel_utilisation=chan_util,
        cpu_utilisation=cpu_util,
        channel_util_timeline=chan_timeline,
        model_rps_per_server=profile.model_metrics.rps,
        model_bottleneck=profile.model_metrics.bottleneck,
        events_processed=fleet.events,
        overload=overload,
    )


# -- crosscheck ---------------------------------------------------------------------


def crosscheck_tiers(scenario, count_rel_tol: float = 0.05,
                     count_abs_tol: float = 5.0,
                     bucket_frac_tol: float = 0.15) -> dict:
    """Run `scenario` on both tiers and compare their telemetry.

    The vector side always draws the "replay" arrival stream, whatever
    ``scenario.arrival_stream`` says: only replay consumes the event
    tier's RNG draw-for-draw, so only replay compares one arrival process
    against itself.  Counters (submitted / completed / spilled / dsa_served, plus total
    shed when deadlines are on) must agree within
    ``count_abs_tol + count_rel_tol * max``; the latency histograms must
    agree bucket-for-bucket within an L1 distance of ``bucket_frac_tol``
    of the event tier's sample count.  Returns a JSON-ready verdict dict
    with per-metric deltas; ``result["passed"]`` is the gate.
    """
    event_reg, vector_reg = MetricsRegistry(), MetricsRegistry()
    from repro.cluster.scenario import run_scenario

    event = run_scenario(replace(scenario, tier="event"), registry=event_reg)
    vector = run_vector_scenario(
        replace(scenario, tier="vector", arrival_stream="replay"),
        registry=vector_reg)
    counts = {}
    passed = True
    names = ["submitted", "completed", "spilled", "dsa_served"]
    for name in names:
        a, b = getattr(event, name), getattr(vector, name)
        tolerance = count_abs_tol + count_rel_tol * max(a, b)
        ok = abs(a - b) <= tolerance
        passed = passed and ok
        counts[name] = {"event": a, "vector": b, "delta": b - a,
                        "tolerance": tolerance, "passed": ok}
    if event.overload is not None and vector.overload is not None:
        a = sum(event.overload["shed"].values())
        b = sum(vector.overload["shed"].values())
        tolerance = count_abs_tol + count_rel_tol * max(a, b)
        ok = abs(a - b) <= tolerance
        passed = passed and ok
        counts["shed_total"] = {"event": a, "vector": b, "delta": b - a,
                                "tolerance": tolerance, "passed": ok}
    event_hist = event_reg.histograms["latency_s"]
    vector_hist = vector_reg.histograms["latency_s"]
    indices = set(event_hist.buckets) | set(vector_hist.buckets)
    l1 = sum(abs(event_hist.buckets.get(i, 0) - vector_hist.buckets.get(i, 0))
             for i in indices)
    frac = l1 / max(1, event_hist.count)
    bucket_ok = frac <= bucket_frac_tol
    passed = passed and bucket_ok
    return {
        "passed": passed,
        "counts": counts,
        "latency_bucket_l1": l1,
        "latency_bucket_l1_frac": frac,
        "latency_bucket_tol": bucket_frac_tol,
        "latency_buckets_passed": bucket_ok,
        "event_rps": event.rps,
        "vector_rps": vector.rps,
        "event_events_processed": event.events_processed,
        "vector_events_processed": vector.events_processed,
    }
