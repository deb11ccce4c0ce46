"""DES kernel unit tests: ordering, processes, resources, determinism,
and the kernel's order against a heap-only reference scheduler."""

import heapq
import math
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.kernel import Event, Resource, Simulator
from repro.cluster.metrics import Timeline


# -- clock & ordering --------------------------------------------------------------


def test_events_fire_in_time_order():
    sim = Simulator()
    log = []
    sim.schedule(0.3, lambda _: log.append("c"))
    sim.schedule(0.1, lambda _: log.append("a"))
    sim.schedule(0.2, lambda _: log.append("b"))
    sim.run()
    assert log == ["a", "b", "c"]
    assert sim.now == pytest.approx(0.3)


def test_simultaneous_events_fire_fifo():
    sim = Simulator()
    log = []
    for tag in range(5):
        sim.schedule(1.0, lambda t=None, tag=tag: log.append(tag))
    sim.run()
    assert log == [0, 1, 2, 3, 4]


def test_run_until_clips_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, lambda _: fired.append(True))
    processed = sim.run(until=2.0)
    assert processed == 0 and not fired
    assert sim.now == pytest.approx(2.0)
    sim.run(until=10.0)
    assert fired and sim.now == pytest.approx(10.0)


def test_cannot_schedule_into_the_past():
    sim = Simulator()
    for delay in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            sim.schedule(delay, lambda _: None)
        with pytest.raises(ValueError):
            sim.timeout(delay)
        with pytest.raises(ValueError):
            sim.sleep(delay, lambda _: None)
    assert not sim._heap and not sim._ready
    # A NaN delay admitted among ordinary ones would break the heap order
    # (0.2 fired before 0.1); rejected, it leaves the order intact.
    log = []
    for delay in (0.5, 0.2, float("nan"), 0.9, 0.1):
        try:
            sim.schedule(delay, lambda _, d=delay: log.append(d))
        except ValueError:
            assert math.isnan(delay)
    sim.run()
    assert log == [0.1, 0.2, 0.5, 0.9]
    # A process sleep is held to the same rule, and the clock stays valid.
    for delay in (-1.0, float("nan")):
        sim = Simulator()

        def sleeper(delay=delay):
            yield delay

        sim.spawn(sleeper())
        with pytest.raises(ValueError):
            sim.run(until=2.0)
        assert sim.now == 0.0


# -- processes ---------------------------------------------------------------------


def test_process_yields_delays_and_returns_value():
    sim = Simulator()

    def worker():
        yield 1.0
        yield 0.5
        return "done"

    process = sim.spawn(worker())
    sim.run()
    assert process.triggered and process.value == "done"
    assert sim.now == pytest.approx(1.5)


def test_process_waits_on_another_process():
    sim = Simulator()
    log = []

    def child():
        yield 2.0
        return 42

    def parent():
        value = yield sim.spawn(child())
        log.append((sim.now, value))

    sim.spawn(parent())
    sim.run()
    assert log == [(2.0, 42)]


def test_event_wait_after_trigger_still_fires():
    sim = Simulator()
    event = Event(sim)
    event.succeed("early")
    seen = []
    event.wait(lambda e: seen.append(e.value))
    sim.run()
    assert seen == ["early"]


def test_event_cannot_trigger_twice():
    sim = Simulator()
    event = Event(sim)
    event.succeed()
    with pytest.raises(RuntimeError):
        event.succeed()


# -- resources ---------------------------------------------------------------------


def test_resource_fifo_grant_order():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    order = []

    def worker(tag, hold):
        yield resource.acquire()
        order.append(tag)
        yield hold
        resource.release()

    for tag in range(3):
        sim.spawn(worker(tag, 1.0))
    sim.run()
    assert order == [0, 1, 2]
    assert sim.now == pytest.approx(3.0)


def test_resource_capacity_allows_parallelism():
    sim = Simulator()
    resource = Resource(sim, capacity=2)

    def worker():
        yield resource.acquire()
        yield 1.0
        resource.release()

    for _ in range(4):
        sim.spawn(worker())
    sim.run()
    # Two at a time: 4 unit-length jobs finish at t=2, not t=4.
    assert sim.now == pytest.approx(2.0)


def test_resource_utilisation_integral():
    sim = Simulator()
    resource = Resource(sim, capacity=1)

    def worker():
        yield resource.acquire()
        yield 1.0
        resource.release()

    sim.spawn(worker())
    sim.run(until=4.0)
    # Busy 1s of a 4s window.
    assert resource.utilisation(0.0) == pytest.approx(0.25)
    resource.reset_utilisation()
    assert resource.utilisation(4.0) == pytest.approx(0.0)


def _hold(sim, resource, form, start, hold):
    """Hold a slot of `resource` for `hold` seconds from `start`, by event
    (a process on :meth:`Resource.acquire`) or by callback."""
    if form == "acquire":
        def holder():
            yield start
            yield resource.acquire()
            yield hold
            resource.release()

        sim.spawn(holder())
    else:
        sim.schedule(start, lambda _: resource.request(
            lambda _: sim.sleep(hold, lambda _: resource.release())))


@pytest.mark.parametrize("form", ["acquire", "request"])
def test_station_timeline_records_the_level_after_a_change(form):
    # A timeline point holds from its time on, so the station records its
    # new level: a slot held during [0, 1) reads busy in the first window
    # only, as utilisation() says.
    sim = Simulator()
    resource = sim.resource(1, timeline=Timeline())
    _hold(sim, resource, form, 0.0, 1.0)
    sim.run(until=4.0)
    assert resource.utilisation(0.0) == 0.25
    assert resource.timeline.window_averages(0.0, 4.0, 4) == [1, 0, 0, 0]


@settings(max_examples=200, deadline=None)
@given(
    holds=st.lists(st.tuples(st.sampled_from(("acquire", "request")),
                             st.integers(0, 2),
                             st.floats(0.0, 3.0), st.floats(0.0, 2.0)),
                   max_size=12),
    until=st.sampled_from((1.0, 2.5, 4.0)),
)
def test_timeline_window_average_equals_utilisation(holds, until):
    sim = Simulator()
    stations = [sim.resource(capacity, timeline=Timeline())
                for capacity in (1, 2, 3)]
    for form, station, start, hold in holds:
        _hold(sim, stations[station], form, start, hold)
    sim.run(until=until)
    for station in stations:
        (average,) = station.timeline.window_averages(0.0, until, 1)
        assert average == pytest.approx(station.utilisation(0.0), abs=1e-9)


def test_queue_depth_tracks_waiters():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    resource.acquire()
    resource.acquire()
    resource.acquire()
    assert resource.queue_depth == 2
    resource.release()
    assert resource.queue_depth == 1


# -- timestamp collisions ----------------------------------------------------------


class TestTimestampCollisions:
    """The heap key is (time, sequence, ...): colliding timestamps must pop
    in submission order, and payloads must never be reached by heapq's
    tuple comparison — non-orderable callbacks/arguments are fine."""

    def test_colliding_timestamps_pop_in_submission_order(self):
        sim = Simulator()
        log = []
        # Interleave two distinct instants, submitted out of time order;
        # within each instant, submission order must be preserved.
        for tag in range(8):
            time = 1.0 if tag % 2 == 0 else 0.5
            sim.schedule(time, lambda _, tag=tag: log.append(tag))
        sim.run()
        assert log == [1, 3, 5, 7, 0, 2, 4, 6]

    def test_uncomparable_payloads_do_not_break_the_heap(self):
        # Lambdas and dicts define no ordering: if time+sequence ever tied
        # (or the sequence were dropped), heapq would raise TypeError when
        # comparing the callback/argument slots.  Same instant, many
        # distinct callables and unorderable arguments.
        sim = Simulator()
        seen = []
        for tag in range(50):
            sim.schedule(2.0, (lambda t: (lambda arg: seen.append((t, arg))))(tag),
                         {"payload": tag})
        sim.run()  # must not raise
        assert [tag for tag, _ in seen] == list(range(50))
        assert seen[0][1] == {"payload": 0}

    def test_timeout_events_at_same_instant_fire_in_creation_order(self):
        sim = Simulator()
        order = []
        first = sim.timeout(0.25, "first")
        second = sim.timeout(0.25, "second")
        second.wait(lambda e: order.append(e.value))
        first.wait(lambda e: order.append(e.value))
        sim.run()
        # Trigger order follows timeout creation (push) order, not the
        # order callbacks were attached.
        assert order == ["first", "second"]


# -- determinism -------------------------------------------------------------------


def test_identical_seeds_identical_rng_streams():
    a, b = Simulator(seed=9), Simulator(seed=9)
    assert [a.rng.random() for _ in range(5)] == [b.rng.random() for _ in range(5)]
    fork_a, fork_b = a.fork_rng("x"), b.fork_rng("x")
    assert [fork_a.random() for _ in range(5)] == [fork_b.random() for _ in range(5)]


def test_events_processed_counter():
    sim = Simulator()
    for _ in range(7):
        sim.schedule(0.1, lambda _: None)
    sim.run()
    assert sim.events_processed == 7

    # The cluster target's payload carries events_processed, so the
    # accounting is pinned: spawning is one event, and a sleep is two
    # (the instant, then the resume).
    def sleeper(count):
        for _ in range(count):
            yield 0.5

    for sleeps, events in ((0, 1), (1, 3), (3, 7), (5, 11)):
        sim = Simulator()
        sim.spawn(sleeper(sleeps))
        assert sim.run() == events == 2 * sleeps + 1

    # Two holders of a capacity-1 resource, one sleep each: 8.
    sim = Simulator()
    resource = sim.resource(1)

    def holder():
        yield resource.acquire()
        yield 0.5
        resource.release()

    sim.spawn(holder())
    sim.spawn(holder())
    sim.run()
    assert sim.events_processed == 8

    # Waiting on a 2-sleep process: its 5 plus the waiter's 2.
    sim = Simulator()

    def waiter():
        yield sim.spawn(sleeper(2))

    sim.spawn(waiter())
    sim.run()
    assert sim.events_processed == 7

    # A sleep is two events, as a process sleep is: the instant, then the
    # stage posted on the lane.  Due now, it is two lane posts.
    for delay in (0.5, 0.0):
        sim = Simulator()
        slept = []
        sim.sleep(delay, slept.append, "woke")
        assert sim.run() == 2 and slept == ["woke"]

    # A callback hold: granted on a free slot, the callback is one event;
    # queued, it costs nothing until the release posts it, then one.
    sim = Simulator()
    resource = sim.resource(1)
    granted = []
    resource.request(granted.append, "free")
    assert sim.run() == 1 and granted == ["free"]
    resource.request(granted.append, "queued")
    assert sim.run() == 0 and granted == ["free"]
    resource.release()
    assert sim.run() == 1 and granted == ["free", "queued"]
    assert resource.busy == 1


# -- the kernel against its oracle -------------------------------------------------


class ReferenceSimulator:
    """Heap-only reference scheduler: the oracle for the kernel's order.

    Every callback, one due at the current instant included, is a push
    onto one heap keyed by ``(time, sequence)``, and a process sleep is a
    timeout :class:`ReferenceEvent` that fires and then posts the resume.
    :class:`~repro.cluster.kernel.Simulator` must fire the same callbacks
    in the same order and count the same events
    (``test_kernel_matches_reference_scheduler``).
    """

    def __init__(self):
        self.now = 0.0
        self.heap = []
        self.sequence = 0
        self.events_processed = 0
        self._ready = ReferenceLane(self)

    def push(self, time, callback, argument):
        self.sequence += 1
        heapq.heappush(self.heap, (time, self.sequence, callback, argument))

    def post(self, callback, argument):
        self.push(self.now, callback, argument)

    def schedule(self, delay, callback, argument=None):
        self.push(self.now + delay, callback, argument)

    def sleep(self, delay, stage, argument=None):
        # A sleep is a schedule whose callback posts the stage on the lane.
        self.schedule(delay, self._ready.append, (stage, argument))

    def timeout(self, delay, value=None):
        event = ReferenceEvent(self)
        self.push(self.now + delay, lambda _: event.succeed(value), None)
        return event

    def spawn(self, generator):
        return ReferenceProcess(self, generator)

    def resource(self, capacity):
        return ReferenceResource(self, capacity)

    def run(self, until=None):
        processed = 0
        while self.heap:
            time, _, callback, argument = self.heap[0]
            if until is not None and time > until:
                break
            heapq.heappop(self.heap)
            self.now = time
            callback(argument)
            processed += 1
        if until is not None and self.now < until:
            self.now = until
        self.events_processed += processed
        return processed


class ReferenceLane:
    """The reference's ready lane: a callback due now is a heap push at
    now, so ``sim._ready.append((callback, argument))`` posts it."""

    def __init__(self, sim):
        self.sim = sim

    def append(self, pair):
        self.sim.post(*pair)


class ReferenceEvent:
    def __init__(self, sim):
        self.sim = sim
        self.value = None
        self.triggered = False
        self.callbacks = []

    def succeed(self, value=None):
        assert not self.triggered
        self.triggered = True
        self.value = value
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            self.sim.post(callback, self)
        return self

    def wait(self, callback):
        if self.triggered:
            self.sim.post(callback, self)
        else:
            self.callbacks.append(callback)


class ReferenceProcess(ReferenceEvent):
    def __init__(self, sim, generator):
        super().__init__(sim)
        self.generator = generator
        sim.post(self.step, None)

    def step(self, fired):
        try:
            target = self.generator.send(None if fired is None else fired.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if not isinstance(target, ReferenceEvent):
            target = self.sim.timeout(target)
        target.wait(self.step)


class ReferenceResource:
    def __init__(self, sim, capacity):
        self.sim = sim
        self.capacity = capacity
        self.busy = 0
        self.waiters = deque()

    def acquire(self):
        grant = ReferenceEvent(self.sim)
        if self.busy < self.capacity:
            self.busy += 1
            grant.succeed()
        else:
            self.waiters.append(grant)
        return grant

    def request(self, callback, argument=None):
        # A callback hold is an acquire plus a wait on its grant.
        self.acquire().wait(lambda _: callback(argument))

    def release(self):
        if self.waiters:
            self.waiters.popleft().succeed()
        else:
            self.busy -= 1


#: Few distinct delays, 0.0 among them, so instants collide often.
_DELAYS = st.sampled_from((0.0, 0.25, 0.5, 1.0))

_STEP = st.one_of(
    st.tuples(st.just("sleep"), _DELAYS),
    st.tuples(st.just("hold"), st.integers(0, 1), _DELAYS),
    st.tuples(st.just("request"), st.integers(0, 1), _DELAYS),
    st.tuples(st.just("join"), st.integers(0, 4)),
    st.tuples(st.just("side"), _DELAYS),
    st.tuples(st.just("timeout"), _DELAYS),
)


def _run_program(sim, programs, windows):
    """Run generated processes on `sim`; return everything observable."""
    log = []
    resources = [sim.resource(1), sim.resource(2)]
    processes = []

    def body(index, steps):
        for position, step in enumerate(steps):
            tag = (index, position, step[0])
            if step[0] == "sleep":
                yield step[1]
                log.append((sim.now, tag))
            elif step[0] == "hold":
                resource = resources[step[1]]
                yield resource.acquire()
                log.append((sim.now, tag, "granted"))
                yield step[2]
                resource.release()
                log.append((sim.now, tag, "released"))
            elif step[0] == "request":
                # A callback hold, as the fleet's stages hold a station:
                # granted, sleep, release, all without this process.
                resource = resources[step[1]]

                def released(tag, resource=resource):
                    resource.release()
                    log.append((sim.now, tag, "released"))

                def granted(tag, delay=step[2], released=released):
                    log.append((sim.now, tag, "granted"))
                    sim.sleep(delay, released, tag)

                resource.request(granted, tag)
            elif step[0] == "join" and len(programs) > 1:
                other = (index + 1 + step[1] % (len(programs) - 1)) \
                    % len(programs)
                value = yield processes[other]
                log.append((sim.now, tag, value))
            elif step[0] == "side":
                sim.schedule(step[1],
                             lambda _, tag=tag: log.append((sim.now, tag)))
            elif step[0] == "timeout":
                # Two waiters: a callback and this process.
                event = sim.timeout(step[1], tag)
                event.wait(lambda fired, tag=tag: log.append(
                    (sim.now, tag, "callback", fired.value)))
                value = yield event
                log.append((sim.now, tag, value))
        return (index, sim.now)

    for index, steps in enumerate(programs):
        processes.append(sim.spawn(body(index, steps)))
    runs = [(until, sim.run(until=until), sim.now) for until in windows]
    runs.append((None, sim.run(), sim.now))
    return {
        "log": log,
        "runs": runs,
        "results": [(p.triggered, p.value) for p in processes],
        "events": sim.events_processed,
    }


@settings(max_examples=300, deadline=None)
@given(
    programs=st.lists(st.lists(_STEP, max_size=6), min_size=1, max_size=6),
    windows=st.lists(st.sampled_from((0.0, 0.25, 0.3, 0.5, 1.0, 1.75, 2.5)),
                     min_size=1, max_size=3),
)
def test_kernel_matches_reference_scheduler(programs, windows):
    kernel = _run_program(Simulator(), programs, windows)
    reference = _run_program(ReferenceSimulator(), programs, windows)
    assert kernel == reference
