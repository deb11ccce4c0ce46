"""Generated histories for the consistency checker.

Every history below comes from a sequential atomic register: each
operation takes effect at one linearization instant strictly inside its
real-time interval, in a global order, and each client runs its
operations one after another.  A read returns the version the register
holds at its instant, so a read that overlaps a write may return either
the old or the new version.  Successful writes always take effect; a
failed write may take effect (ABD can expose a write that reached some
replicas before its quorum failed) or not, and a failed write that never
took effect still names a version, the next one its writer would have
installed.  Such histories are linearizable, so the checker must find no
violation in them; one injected defect must yield exactly its own rule.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.replication.checker import (
    INITIAL_VERSION,
    ConsistencyChecker,
    OpRecord,
)

pytestmark = pytest.mark.replication

#: Simulated seconds per time unit of the generated histories.
TICK_S = 1e-6


@st.composite
def _register_history(draw):
    """(ops, clients): a linearizable history over one or two keys.

    Step ``i`` is the linearization instant ``100 * (i + 1)``; a client
    whose previous operation is still open then cannot take it.  The
    first operation is a successful write, so every history has a
    committed version to inject defects against.
    """
    clients = draw(st.integers(1, 4))
    keys = draw(st.integers(1, 2))
    busy_until = [0] * clients
    sequence = [0] * keys          # effective writes per key
    current = [INITIAL_VERSION] * keys
    ops = []
    for step in range(draw(st.integers(1, 24))):
        instant = 100 * (step + 1)
        free = [c for c in range(clients) if busy_until[c] + 1 < instant]
        if not free:
            continue
        first = not ops
        client = 0 if first else draw(st.sampled_from(free))
        key = 0 if first else draw(st.integers(0, keys - 1))
        start = max(busy_until[client] + 1,
                    instant - draw(st.integers(1, 250)))
        end = instant + draw(st.integers(1, 250))
        busy_until[client] = end
        kind = "write" if first else draw(st.sampled_from(("read", "write")))
        ok = True if first else draw(st.booleans())
        if kind == "write":
            effective = ok or draw(st.booleans())
            version = (sequence[key] + 1, client + 1)
            if effective:
                sequence[key] += 1
                current[key] = version
        else:
            version = current[key] if ok else INITIAL_VERSION
        ops.append(OpRecord(
            op_id=len(ops), client=client, kind=kind, key=key,
            start_s=start * TICK_S, end_s=end * TICK_S, ok=ok,
            version=version, value=len(ops)))
    return ops, clients


def _audit(ops):
    checker = ConsistencyChecker()
    for op in ops:
        checker.record(op)
    return checker.check()


@settings(max_examples=100, deadline=None)
@given(case=_register_history())
def test_linearizable_histories_are_clean(case):
    ops, _ = case
    assert _audit(ops) == []


@settings(max_examples=100, deadline=None)
@given(case=_register_history(), defect=st.sampled_from(
           ("stale-read", "phantom-read", "duplicate-write-version")),
       data=st.data())
def test_one_injected_defect_yields_exactly_its_rule(case, defect, data):
    ops, clients = case
    committed = [op for op in ops if op.kind == "write" and op.ok]
    key = data.draw(st.sampled_from(sorted({op.key for op in committed})))
    on_key = [op for op in committed if op.key == key]
    # A fresh client acts after every recorded operation has ended, so
    # it has no session to break and every committed write is behind it.
    after = max(op.end_s for op in ops) + TICK_S
    floor = max(op.version for op in on_key)
    known = {INITIAL_VERSION} | {op.version for op in ops
                                 if op.kind == "write" and op.key == key}
    kind = "read"
    if defect == "stale-read":
        version = data.draw(st.sampled_from(
            sorted(v for v in known if v < floor)))
    elif defect == "phantom-read":
        # Writer 0 names no client, so no write ever installed it.
        version = (max(v[0] for v in known) + 1, 0)
    else:
        kind = "write"
        version = data.draw(st.sampled_from(
            sorted(op.version for op in on_key)))
    injected = OpRecord(
        op_id=len(ops), client=clients, kind=kind, key=key,
        start_s=after, end_s=after + TICK_S, ok=True, version=version,
        value=len(ops))
    found = [(v.rule, v.op_id) for v in _audit(ops + [injected])]
    assert found == [(defect, injected.op_id)]
