"""Deterministic discrete-event simulation kernel.

A minimal DES engine in the simpy idiom, purpose-built for the cluster
layer: a simulated clock, one seeded :class:`random.Random`, stations
(:class:`Resource`) that grant slots by event or by callback, coroutine
processes that ``yield`` delays or events, and two lanes of pending
callbacks:

* the **heap** holds callbacks due at a later instant, keyed by
  ``(time, sequence)`` with a strictly increasing sequence number;
* the **ready lane** (:attr:`Simulator._ready`) is a FIFO deque of
  callbacks due at the current instant ``now``: a triggered event's
  waiters, a new process's first step, a station grant, and every push
  whose time equals ``now`` append there instead of paying two heap
  operations.

:meth:`Simulator.run` first pops heap entries whose time is ``<= now``,
then the ready lane, and advances the clock to the next heap entry only
once the lane is empty.  This fires every callback in exactly the order
one ``(time, sequence)`` heap would: at any instant ``t``, every heap
entry at ``t`` was pushed while the clock was still below ``t``, so it
carries a smaller sequence number than anything pushed at ``t`` and runs
first; the pushes made at ``t`` then run in FIFO order, which is their
sequence order.

A sleep allocates no :class:`Event`.  :meth:`Simulator.sleep` is one
heap entry whose callback posts a stage onto the ready lane, exactly
``schedule(d, sim._ready.append, (stage, argument))``; a process's
``yield <seconds>`` and every timed stage of the fleet and the load
generators use it.  It counts as two events (the instant, then the
stage), exactly like waiting on ``timeout(d)``; ``events_processed`` is
part of reported scenario results.

The fleet's request path runs no process at all: it is a chain of stage
callbacks over one job record (:class:`repro.cluster.fleet.Job`).  Its
steps land on the lane exactly where a process's resumes would, so the
chain fires in the same order and counts the same events:

* the job posts its first stage where spawning posts a first step;
* :meth:`Resource.request` posts a stage at once on a free slot, where a
  process waiting on :meth:`Resource.acquire`'s already-triggered grant
  resumes, and a queued ``(wake, argument)`` waiter is posted by the
  :meth:`Resource.release` that hands it the slot, where the grant
  event's waiter is posted;
* a service time is ``sim.sleep(d, stage, job)``, the heap entry and
  lane post of a process sleep.

A DSA-routed request is thus 13 events: its start, four grants and four
two-event sleeps.  Processes remain for the replication clients and for
tests.

Determinism is the design constraint, not an afterthought:

* callbacks fire in ``(time, sequence)`` order as argued above, so
  simultaneous events fire in the order they were scheduled;
* all randomness flows through ``Simulator.rng`` (or children derived from
  it via :meth:`Simulator.fork_rng`) — no module-level ``random`` anywhere
  in the cluster layer;
* nothing reads wall-clock time, object ids, or hash-randomised iteration
  order.

Two runs with the same seed therefore produce byte-identical event
sequences and, downstream, byte-identical metrics (see
``tests/cluster/test_determinism.py``).  ``tests/cluster/test_kernel.py``
checks the order against a heap-only reference scheduler, and
``tests/cluster/test_fleet_oracle.py`` checks the fleet's stage chain
against the generator processes it replaced.
"""

from __future__ import annotations

import heapq
import random
from collections import deque


class Event:
    """A one-shot occurrence processes can wait on.

    Starts untriggered; :meth:`succeed` fires it with an optional value.
    Callbacks added after the trigger still run (immediately, in schedule
    order), so there is no lost-wakeup race.
    """

    __slots__ = ("sim", "value", "triggered", "_callbacks")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.value = None
        self.triggered = False
        self._callbacks = []

    def succeed(self, value=None) -> "Event":
        """Trigger the event with `value`, waking every waiter (once only)."""
        if self.triggered:
            raise RuntimeError("event already triggered")
        self.triggered = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            post = self.sim._ready.append
            for callback in callbacks:
                post((callback, self))
        return self

    def wait(self, callback) -> None:
        """Run `callback(event)` once the event has triggered."""
        if self.triggered:
            self.sim._ready.append((callback, self))
        else:
            self._callbacks.append(callback)


class Process(Event):
    """A coroutine driven by the kernel; doubles as its completion event.

    The wrapped generator may ``yield``:

    * a number — sleep that many simulated seconds
      (:meth:`Simulator.sleep`: one heap entry that posts the resume, no
      :class:`Event`; any delay not ``>= 0``, NaN included, raises
      :class:`ValueError`);
    * an :class:`Event` (including another process or a resource grant) —
      resume when it triggers, receiving the event's value.

    The generator's ``return`` value becomes the process's event value.
    """

    __slots__ = ("_generator",)

    def __init__(self, sim: "Simulator", generator):
        super().__init__(sim)
        self._generator = generator
        sim._ready.append((self._step, None))

    def _step(self, fired: Event) -> None:
        try:
            target = self._generator.send(
                fired.value if fired is not None else None)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if isinstance(target, (int, float)):
            self.sim.sleep(target, self._step)
        elif isinstance(target, Event):
            target.wait(self._step)
        else:
            raise TypeError(
                "process yielded %r; expected a delay or an Event" % (target,)
            )


class Resource:
    """A FIFO multi-server resource (`capacity` concurrent holders).

    A slot is granted in one of two forms: :meth:`acquire` returns an
    :class:`Event` that triggers on the grant (for processes), and
    :meth:`request` runs a callback on the grant (for stage chains such as
    the fleet's request path).  Both queue the same ``(wake, argument)``
    waiter, and one :meth:`release` hands the slot to the longest-waiting
    requester by calling ``wake(argument)``.  Busy time is integrated
    continuously so utilisation over any window is exact, not sampled;
    a `timeline` receives the busy fraction after every change of level.

    `max_queue` declares a bounded queue: :attr:`full` turns True once
    `max_queue` waiters are queued.  The bound is advisory — callers
    (the fleet's backpressure path) must check `full` *before* asking for
    a slot and re-route or reject instead; the station itself never
    refuses, so internal code that already holds an admission ticket
    cannot deadlock on its own bound.
    """

    __slots__ = ("sim", "name", "capacity", "busy", "max_queue", "_waiters",
                 "_busy_integral", "_last_change", "timeline")

    #: A FIFO station has no arbiter; :class:`repro.qos.drr.QosResource`
    #: overrides this with its :class:`~repro.qos.drr.DrrArbiter`.
    arbiter = None

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "",
                 timeline=None, max_queue: int = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if max_queue is not None and max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.busy = 0
        self.max_queue = max_queue
        self._waiters = deque()  # (wake, argument) pairs, FIFO
        self._busy_integral = 0.0
        self._last_change = sim.now
        self.timeline = timeline

    def _account(self, delta: int) -> None:
        """Change the number of held slots by `delta` at the current instant.

        One step: integrate the busy level up to now, apply the change, and
        record the new level on the timeline.  A :class:`~repro.cluster.
        metrics.Timeline` point holds from its time on, so it carries the
        level *after* the change.  :meth:`request` and :meth:`release`, the
        fleet's per-request path, inline these statements.
        """
        now = self.sim.now
        self._busy_integral += self.busy * (now - self._last_change)
        self._last_change = now
        self.busy += delta
        if self.timeline is not None:
            self.timeline.add(now, self.busy / self.capacity)

    def _enqueue(self, waiter, tenant: str, klass: str, cost_s: float) -> None:
        """Queue a ``(wake, argument)`` waiter; FIFO ignores the tags."""
        self._waiters.append(waiter)

    def acquire(self, tenant: str = "", klass: str = "standard",
                cost_s: float = 0.0) -> Event:
        """Request a slot; the returned event triggers when it is granted.

        `tenant`, `klass` and `cost_s` are the arbitration inputs of a
        QoS station (:class:`repro.qos.drr.QosResource`); a FIFO station
        ignores them.
        """
        if self.busy < self.capacity:
            self._account(1)
            return Event(self.sim).succeed()
        grant = Event(self.sim)
        self._enqueue((grant.succeed, None), tenant, klass, cost_s)
        return grant

    def request(self, callback, argument=None, tenant: str = "",
                klass: str = "standard", cost_s: float = 0.0) -> None:
        """Request a slot; `callback(argument)` runs when it is granted.

        The grant is posted on the ready lane: at once when a slot is free,
        else by the :meth:`release` that hands the slot over.  That is the
        lane position where a process waiting on :meth:`acquire`'s event
        would resume, so both forms fire in the same order and each grant
        costs one event.  The tags are as for :meth:`acquire`.
        """
        sim = self.sim
        busy = self.busy
        if busy < self.capacity:
            # _account(1), inlined.
            now = sim.now
            self._busy_integral += busy * (now - self._last_change)
            self._last_change = now
            self.busy = busy = busy + 1
            if self.timeline is not None:
                self.timeline.add(now, busy / self.capacity)
            sim._ready.append((callback, argument))
        else:
            self._enqueue((sim._ready.append, (callback, argument)),
                          tenant, klass, cost_s)

    def release(self) -> None:
        """Free a held slot, handing it to the next waiter.

        Raises :class:`RuntimeError` when nothing holds a slot: an
        unmatched release would drive `busy` negative and with it the
        station's utilisation.
        """
        waiters = self._waiters
        busy = self.busy
        if waiters:
            # Slot changes hands; occupancy is unchanged.
            wake, argument = waiters.popleft()
            wake(argument)
        elif busy > 0:
            # _account(-1), inlined.
            now = self.sim.now
            self._busy_integral += busy * (now - self._last_change)
            self._last_change = now
            self.busy = busy = busy - 1
            if self.timeline is not None:
                self.timeline.add(now, busy / self.capacity)
        else:
            raise RuntimeError(
                "release of idle station %r: no slot is held" % (self.name,))

    @property
    def queue_depth(self) -> int:
        return len(self._waiters)

    @property
    def full(self) -> bool:
        """Whether the bounded queue has reached its depth limit."""
        return self.max_queue is not None and len(self._waiters) >= self.max_queue

    def reset_utilisation(self) -> None:
        """Restart busy-time integration (e.g. at the end of warmup)."""
        self._busy_integral = 0.0
        self._last_change = self.sim.now

    def utilisation(self, since: float = 0.0) -> float:
        """Mean busy fraction from the last reset (at `since`) to now."""
        window = self.sim.now - since
        if window <= 0.0:
            return 0.0
        integral = self._busy_integral + self.busy * (self.sim.now - self._last_change)
        return integral / (window * self.capacity)


class Simulator:
    """The event loop: heap, ready lane, clock, seeded RNG, process spawner."""

    def __init__(self, seed: int = 0):
        self.now = 0.0
        self.rng = random.Random(seed)
        self._heap = []
        self._ready = deque()  # (callback, argument) pairs due at `now`
        self._sequence = 0
        self.events_processed = 0

    # -- scheduling -------------------------------------------------------------

    def _push(self, time: float, callback, argument) -> None:
        if time == self.now:
            # Due this instant: after everything already due, which is
            # where a fresh heap sequence number would have put it.
            self._ready.append((callback, argument))
            return
        # Heap entries are (time, sequence, callback, argument).  The
        # sequence is strictly monotonic and unique per push, so heapq's
        # tuple comparison NEVER reaches the callback/argument slots: events
        # with colliding timestamps pop in submission order, and payloads
        # need not be orderable (lambdas, dicts, Events are all fine).
        # Pinned by tests/cluster/test_kernel.py::TestTimestampCollisions.
        self._sequence += 1
        heapq.heappush(self._heap, (time, self._sequence, callback, argument))

    def schedule(self, delay: float, callback, argument=None) -> None:
        """Run `callback(argument)` after `delay` simulated seconds."""
        if not delay >= 0:  # negative or NaN
            raise ValueError("cannot schedule into the past: %r" % (delay,))
        self._push(self.now + delay, callback, argument)

    def sleep(self, delay: float, stage, argument=None) -> None:
        """Post `stage(argument)` on the ready lane `delay` seconds from now.

        Exactly ``schedule(delay, self._ready.append, (stage, argument))``,
        with :meth:`_push` inlined: the same heap entry (or, due now, the
        same lane post), sequence number and error, and two events, the
        instant and then the stage.  A process's ``yield <seconds>`` and
        the timed stages of the fleet and the load generators sleep here.
        """
        if not delay >= 0:  # negative or NaN
            raise ValueError("cannot sleep for %r seconds" % (delay,))
        now = self.now
        time = now + delay
        post = self._ready.append
        if time == now:
            post((post, (stage, argument)))
            return
        self._sequence += 1
        heapq.heappush(self._heap,
                       (time, self._sequence, post, (stage, argument)))

    def timeout(self, delay: float, value=None) -> Event:
        """An event that triggers `delay` seconds from now."""
        if not delay >= 0:  # negative or NaN
            raise ValueError("timeout must be >= 0, got %r" % (delay,))
        event = Event(self)
        self._push(self.now + delay, self._fire, (event, value))
        return event

    @staticmethod
    def _fire(pair) -> None:
        event, value = pair
        event.succeed(value)

    def spawn(self, generator) -> Process:
        """Start a coroutine process; returns its completion event."""
        return Process(self, generator)

    def fork_rng(self, label: str) -> random.Random:
        """A child RNG derived deterministically from the master seed."""
        return random.Random((self.rng.getrandbits(48) << 16) ^ len(label))

    def resource(self, capacity: int = 1, name: str = "", timeline=None,
                 max_queue: int = None) -> Resource:
        """Create a FIFO :class:`Resource` bound to this simulator's clock."""
        return Resource(self, capacity, name, timeline, max_queue)

    # -- running ----------------------------------------------------------------

    def run(self, until: float = None) -> int:
        """Process events until both lanes drain or the clock would pass
        `until`.

        Returns the number of events processed by this call.  With `until`
        given, the clock is left exactly at `until` even if the last event
        fired earlier (so back-to-back windows tile perfectly).
        """
        if until is not None and until < self.now:
            return 0  # everything pending is due at `now` or later
        processed = 0
        heap = self._heap
        ready = self._ready
        pop = heapq.heappop
        popleft = ready.popleft
        now = self.now
        while True:
            # Heap entries due now were pushed before the clock got here,
            # so they precede the whole lane.
            while heap and heap[0][0] <= now:
                _, _, callback, argument = pop(heap)
                callback(argument)
                processed += 1
            # Nothing can join the heap at `now` any more: a push due now
            # lands on the lane.
            while ready:
                callback, argument = popleft()
                callback(argument)
                processed += 1
            if not heap:
                break
            # Both lanes are done with `now`: the earliest heap entry
            # opens the next instant.
            time, _, callback, argument = heap[0]
            if until is not None and time > until:
                break
            pop(heap)
            self.now = now = time
            callback(argument)
            processed += 1
        if until is not None and self.now < until:
            self.now = until
        self.events_processed += processed
        return processed
