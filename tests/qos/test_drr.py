"""Unit tests for the DRR arbiter and the QoS station resource."""

from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.kernel import Event, Resource, Simulator
from repro.qos import CLASS_RANK, DEFAULT_CLASS, PRIORITY_CLASSES, DrrArbiter
from repro.qos.drr import QosResource


def _grant(sim):
    return Event(sim)


@pytest.fixture
def sim():
    return Simulator(seed=0)


# -- strict priority between classes -------------------------------------------------


def test_class_constants_are_consistent():
    assert PRIORITY_CLASSES == ("latency", "standard", "batch")
    assert CLASS_RANK["latency"] < CLASS_RANK["standard"] < CLASS_RANK["batch"]
    assert DEFAULT_CLASS in CLASS_RANK


def test_latency_class_preempts_queued_batch_work(sim):
    arbiter = DrrArbiter(quantum_s=1.0)
    batch = [_grant(sim) for _ in range(3)]
    for grant in batch:
        arbiter.enqueue("bulk", "batch", 0.1, grant)
    urgent = _grant(sim)
    arbiter.enqueue("frontend", "latency", 0.1, urgent)
    # The latency waiter arrived last but dequeues first.
    assert arbiter.dequeue() is urgent
    assert [arbiter.dequeue() for _ in range(3)] == batch
    assert arbiter.dequeue() is None


def test_unknown_class_falls_back_to_standard(sim):
    arbiter = DrrArbiter(quantum_s=1.0)
    odd = _grant(sim)
    arbiter.enqueue("t", "no-such-class", 0.1, odd)
    low = _grant(sim)
    arbiter.enqueue("t", "batch", 0.1, low)
    assert arbiter.dequeue() is odd  # standard rank beats batch
    assert arbiter.dequeue() is low


# -- DRR fairness inside a class -----------------------------------------------------


def test_equal_weights_interleave_equal_costs(sim):
    arbiter = DrrArbiter(quantum_s=0.1)
    owner = {}
    for index in range(4):
        for tenant in ("a", "b"):
            grant = _grant(sim)
            arbiter.enqueue(tenant, "standard", 0.1, grant)
            owner[id(grant)] = tenant
    served = [owner[id(arbiter.dequeue())] for _ in range(8)]
    # One grant per tenant per rotation: a, b, a, b, ...
    assert served == ["a", "b"] * 4
    assert arbiter.served == {"a": 4, "b": 4}


def test_weighted_shares_are_service_second_proportional(sim):
    arbiter = DrrArbiter(weights={"heavy": 3.0, "light": 1.0}, quantum_s=0.1)
    for _ in range(40):
        arbiter.enqueue("heavy", "standard", 0.1, _grant(sim))
        arbiter.enqueue("light", "standard", 0.1, _grant(sim))
    for _ in range(24):
        arbiter.dequeue()
    # While both stay backlogged, service seconds split 3:1.
    assert arbiter.served_seconds["heavy"] == pytest.approx(
        3.0 * arbiter.served_seconds["light"], rel=0.25)


def test_byte_fairness_large_requests_cost_more(sim):
    # "big" sends requests 4x the service cost of "small": with equal
    # weights, "small" must complete ~4x as many requests.
    arbiter = DrrArbiter(quantum_s=0.2)
    for _ in range(40):
        arbiter.enqueue("big", "standard", 0.4, _grant(sim))
        arbiter.enqueue("small", "standard", 0.1, _grant(sim))
    for _ in range(30):
        arbiter.dequeue()
    assert arbiter.served["small"] == pytest.approx(
        4 * arbiter.served["big"], rel=0.35)
    assert arbiter.served_seconds["small"] == pytest.approx(
        arbiter.served_seconds["big"], rel=0.25)


def test_idle_tenant_forfeits_deficit(sim):
    arbiter = DrrArbiter(quantum_s=1.0)
    arbiter.enqueue("a", "standard", 0.1, _grant(sim))
    arbiter.dequeue()  # queue empties -> deficit must reset, ring shrink
    assert arbiter._deficit[(CLASS_RANK["standard"], "a")] == 0.0
    assert "a" not in arbiter._rings[CLASS_RANK["standard"]]
    # Re-arrival starts from scratch (no banked credit from the idle spell).
    expensive = _grant(sim)
    cheap = _grant(sim)
    arbiter.enqueue("a", "standard", 5.0, expensive)
    arbiter.enqueue("b", "standard", 0.5, cheap)
    # a's head costs 5 quanta: b is served while a accumulates deficit.
    assert arbiter.dequeue() is cheap
    assert arbiter.dequeue() is expensive


def test_deficit_accumulates_across_rotations_no_starvation(sim):
    # A tenant whose every request exceeds one quantum still gets served:
    # the deficit builds up one quantum per rotation until it covers the
    # head-of-line cost.
    arbiter = DrrArbiter(quantum_s=0.1)
    expensive = _grant(sim)
    arbiter.enqueue("elephant", "standard", 0.35, expensive)
    mice = [_grant(sim) for _ in range(10)]
    for grant in mice:
        arbiter.enqueue("mouse", "standard", 0.1, grant)
    served = [arbiter.dequeue() for _ in range(11)]
    assert expensive in served
    assert served.index(expensive) > 0  # not first — it had to accumulate
    assert arbiter.pending == 0


# -- generated traces ----------------------------------------------------------------

_TENANTS = ("a", "b", "c")

#: Bursts, so that queues stay backlogged for long stretches: ``count``
#: enqueues of ``(tenant, class, cost)``, or ``count`` dequeues.
_TRACE = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(_TENANTS), st.sampled_from(PRIORITY_CLASSES),
                  st.floats(0.01, 2.0), st.integers(1, 20)),
        st.integers(1, 20),
    ),
    max_size=40,
).map(lambda bursts: [
    op for burst in bursts
    for op in ([burst[:3]] * burst[3] if isinstance(burst, tuple)
               else [None] * burst)])


@settings(max_examples=200, deadline=None)
@given(trace=_TRACE,
       weights=st.tuples(*(st.floats(0.25, 4.0) for _ in _TENANTS)),
       quantum_s=st.floats(0.05, 1.0))
def test_generated_traces_keep_priority_and_the_drr_share_bound(
        trace, weights, quantum_s):
    """Strict priority between classes and DRR's share bound inside one.

    Priority: a dequeue grants from the best (lowest-rank) class that has
    a waiter, and FIFO within one (class, tenant) queue.

    Share bound: let tenants i and j of one class be continuously
    backlogged from T0 to t, with weights w, ``q = quantum_s * w`` and C
    the largest cost in the trace.  A tenant's deficit D only grows by q
    per visit top-up and shrinks by the cost of each grant (nobody
    empties inside the window, so no reset), so the seconds it is served
    in the window are ``S = n q + D(T0) - D(t)`` with n its top-ups.  A
    visit ends only when D is below the head's cost, so D < C before a
    top-up and ``0 <= D < C + q`` always.  The ring visits its tenants in
    a fixed cyclic order, so top-ups of i and j alternate and
    ``|n_i - n_j| <= 1``.  Dividing by the weights:

        |S_i/w_i - S_j/w_j| <= quantum_s + (C + q_i)/w_i + (C + q_j)/w_j
                             = 3 quantum_s + C (1/w_i + 1/w_j).
    """
    weights = dict(zip(_TENANTS, weights))
    arbiter = DrrArbiter(weights=weights, quantum_s=quantum_s)
    largest = max((op[2] for op in trace if op is not None), default=0.0)
    queued = {}     # (rank, tenant) -> FIFO of tokens
    enqueued = {}   # token -> ((rank, tenant), cost)
    windows = {}    # (rank, i, j) -> {i: served s, j: served s} since T0

    def backlogged(rank, tenant):
        return bool(queued.get((rank, tenant)))

    for token, op in enumerate(trace):
        if op is not None:
            tenant, klass, cost = op
            key = (CLASS_RANK[klass], tenant)
            arbiter.enqueue(tenant, klass, cost, token)
            queued.setdefault(key, deque()).append(token)
            enqueued[token] = (key, cost)
            for i, j in combinations(_TENANTS, 2):
                pair = (key[0], i, j)
                if pair not in windows and backlogged(key[0], i) \
                        and backlogged(key[0], j):
                    windows[pair] = {i: 0.0, j: 0.0}
            continue
        grant = arbiter.dequeue()
        waiting = [key for key, tokens in queued.items() if tokens]
        if not waiting:
            assert grant is None
            continue
        key, cost = enqueued[grant]
        rank, tenant = key
        assert rank == min(rank for rank, _ in waiting)
        assert queued[key].popleft() == grant
        for (pair_rank, i, j), served in list(windows.items()):
            if pair_rank != rank or tenant not in served:
                continue
            served[tenant] += cost
            gap = abs(served[i] / weights[i] - served[j] / weights[j])
            bound = 3 * quantum_s + largest * (1 / weights[i] + 1 / weights[j])
            assert gap <= bound + 1e-9, (i, j, gap, bound)
            if not queued[key]:
                del windows[(pair_rank, i, j)]
    assert arbiter.pending == sum(len(tokens) for tokens in queued.values())


# -- per-tenant depth bounds ---------------------------------------------------------


def test_tenant_depth_and_full(sim):
    arbiter = DrrArbiter(quantum_s=1.0, tenant_queue_limits={"bounded": 2})
    assert not arbiter.tenant_full("bounded")
    arbiter.enqueue("bounded", "standard", 0.1, _grant(sim))
    arbiter.enqueue("bounded", "batch", 0.1, _grant(sim))  # across classes
    assert arbiter.tenant_depth("bounded") == 2
    assert arbiter.tenant_full("bounded")
    assert not arbiter.tenant_full("unbounded")  # no limit configured
    arbiter.dequeue()
    assert not arbiter.tenant_full("bounded")


def test_quantum_must_be_positive():
    with pytest.raises(ValueError):
        DrrArbiter(quantum_s=0.0)
    with pytest.raises(ValueError):
        DrrArbiter(quantum_s=-1e-6)


def test_summary_is_sorted_and_json_ready(sim):
    arbiter = DrrArbiter(quantum_s=0.5)
    arbiter.enqueue("zeta", "standard", 0.1, _grant(sim))
    arbiter.enqueue("alpha", "standard", 0.1, _grant(sim))
    arbiter.dequeue()
    arbiter.dequeue()
    summary = arbiter.summary()
    assert list(summary["served"]) == ["alpha", "zeta"]
    assert summary["quantum_s"] == 0.5


# -- the station resource ------------------------------------------------------------


def test_qos_resource_grants_immediately_below_capacity(sim):
    station = QosResource(sim, capacity=2, name="cpu")
    first = station.acquire("a", "standard", 0.1)
    second = station.acquire("b", "standard", 0.1)
    assert first.triggered and second.triggered
    third = station.acquire("c", "standard", 0.1)
    assert not third.triggered
    assert station.queue_depth == 1


def test_qos_resource_release_respects_arbitration(sim):
    station = QosResource(sim, capacity=1, name="cpu")
    station.acquire("busy", "standard", 0.1)
    queued_batch = station.acquire("bulk", "batch", 0.1)
    queued_latency = station.acquire("frontend", "latency", 0.1)
    station.release()
    assert queued_latency.triggered and not queued_batch.triggered
    station.release()
    assert queued_batch.triggered
    station.release()  # empties: busy count returns to zero
    assert station.busy == 0 and station.queue_depth == 0


def test_qos_resource_full_for_combines_bounds(sim):
    arbiter = DrrArbiter(quantum_s=1.0, tenant_queue_limits={"capped": 1})
    station = QosResource(sim, capacity=1, name="ch", arbiter=arbiter,
                          max_queue=3)
    station.acquire("x", "standard", 0.1)  # takes the slot
    station.acquire("capped", "standard", 0.1)
    assert station.full_for("capped")       # per-tenant bound
    assert not station.full_for("other")
    station.acquire("other", "standard", 0.1)
    station.acquire("other", "standard", 0.1)
    assert station.full                     # station-wide bound
    assert station.full_for("other")


def test_qos_resource_callback_grants_follow_arbitration(sim):
    station = QosResource(sim, capacity=1, name="cpu")
    order = []
    station.request(order.append, "busy", "busy", "standard", 0.1)
    station.request(order.append, "bulk", "bulk", "batch", 0.1)
    station.request(order.append, "frontend", "frontend", "latency", 0.1)
    assert sim.run() == 1 and order == ["busy"]
    station.release()
    assert sim.run() == 1 and order == ["busy", "frontend"]
    station.release()
    assert sim.run() == 1 and order == ["busy", "frontend", "bulk"]
    assert station.queue_depth == 0 and station.busy == 1


@pytest.mark.parametrize("station_class", [Resource, QosResource])
def test_release_of_an_idle_station_raises(sim, station_class):
    station = station_class(sim, 1, "server0.ch0")
    with pytest.raises(RuntimeError, match="server0.ch0"):
        station.release()
    station.acquire()
    sim.run(until=1.0)
    station.release()
    with pytest.raises(RuntimeError, match="server0.ch0"):
        station.release()
    sim.run(until=2.0)
    # The refused releases left occupancy and utilisation intact.
    assert station.busy == 0
    assert station.utilisation(0.0) == pytest.approx(0.5)
