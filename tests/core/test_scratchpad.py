"""Scratchpad lifecycle: allocation, line states, recycling, pending lists."""

import pytest

from repro.core.scratchpad import (
    LineState,
    Scratchpad,
    ScratchpadFullError,
)
from repro.dram.commands import CACHELINE_SIZE, LINES_PER_PAGE


def test_allocate_and_free():
    pad = Scratchpad(total_pages=4)
    index = pad.allocate(dbuf_page=100)
    assert pad.used_pages == 1
    assert pad.free_pages == 3
    pad.free(index)
    assert pad.used_pages == 0


def test_allocation_exhaustion():
    pad = Scratchpad(total_pages=2)
    pad.allocate(1)
    pad.allocate(2)
    with pytest.raises(ScratchpadFullError):
        pad.allocate(3)


def test_free_unallocated_raises():
    with pytest.raises(KeyError):
        Scratchpad(total_pages=2).free(0)


def test_line_write_and_read():
    pad = Scratchpad(total_pages=2)
    index = pad.allocate(5)
    data = bytes(range(64))
    pad.write_line_run(index, 3, data, 1)
    assert pad.line_state(index, 3) is LineState.VALID
    assert pad.page(index).data[3 * CACHELINE_SIZE : 4 * CACHELINE_SIZE] == data


def test_line_write_requires_64_bytes():
    pad = Scratchpad(total_pages=1)
    index = pad.allocate(0)
    with pytest.raises(ValueError):
        pad.write_line_run(index, 0, b"short", 1)


def test_byte_writes_do_not_change_state():
    pad = Scratchpad(total_pages=1)
    index = pad.allocate(0)
    pad.write_bytes(index, 100, b"tagtagtag")
    assert pad.line_state(index, 1) is LineState.NOT_COMPUTED
    assert pad.page(index).data[100 : 100 + 9] == b"tagtagtag"


def test_byte_write_overrun_rejected():
    pad = Scratchpad(total_pages=1)
    index = pad.allocate(0)
    with pytest.raises(ValueError):
        pad.write_bytes(index, 4090, b"0123456789")


def test_recycle_line_returns_data_and_marks_recycled():
    pad = Scratchpad(total_pages=1)
    index = pad.allocate(7)
    pad.write_line_run(index, 0, b"\x0f" * 64, 1)
    data, page_free = pad.recycle_line_run(index, 0, 1)
    assert data == b"\x0f" * 64
    assert not page_free  # 63 lines still NOT_COMPUTED
    assert pad.line_state(index, 0) is LineState.RECYCLED
    assert pad.self_recycled_lines == 1


def test_recycle_requires_valid_state():
    pad = Scratchpad(total_pages=1)
    index = pad.allocate(0)
    with pytest.raises(RuntimeError):
        pad.recycle_line_run(index, 0, 1)


def test_full_page_recycle_signals_free():
    pad = Scratchpad(total_pages=1)
    index = pad.allocate(9)
    for line in range(LINES_PER_PAGE):
        pad.write_line_run(index, line, bytes(64), 1)
    freed = False
    for line in range(LINES_PER_PAGE):
        _, freed = pad.recycle_line_run(index, line, 1)
    assert freed
    assert pad.page(index).all_recycled()


def test_forced_recycle_counted_separately():
    pad = Scratchpad(total_pages=1)
    index = pad.allocate(0)
    pad.write_line_run(index, 0, bytes(64), 1)
    pad.recycle_line_run(index, 0, 1, forced=True)
    assert pad.force_recycled_lines == 1
    assert pad.self_recycled_lines == 0


def test_pending_pages_lists_valid_unrecycled():
    pad = Scratchpad(total_pages=4)
    a = pad.allocate(100)
    b = pad.allocate(200)
    pad.allocate(300)  # never written: not pending
    pad.write_line_run(a, 0, bytes(64), 1)
    pad.write_line_run(b, 5, bytes(64), 1)
    assert sorted(pad.pending_pages()) == [100, 200]
    pad.recycle_line_run(a, 0, 1)
    assert pad.pending_pages() == [200]
    assert pad.pending_lines(b) == [5]


def test_ready_cycle_gating():
    pad = Scratchpad(total_pages=1)
    index = pad.allocate(0)
    pad.write_line_run(index, 2, bytes(64), 1)
    pad.set_ready_cycle(index, 2, 1000)
    assert not pad.is_ready(index, 2, now_cycle=999)
    assert pad.is_ready(index, 2, now_cycle=1000)
    # Lines without a ready cycle are ready as soon as VALID.
    pad.write_line_run(index, 3, bytes(64), 1)
    assert pad.is_ready(index, 3, now_cycle=0)
    # NOT_COMPUTED lines are never ready.
    assert not pad.is_ready(index, 4, now_cycle=10**9)


def test_peak_and_counters():
    pad = Scratchpad(total_pages=4)
    indices = [pad.allocate(i) for i in range(3)]
    assert pad.peak_pages == 3
    for index in indices:
        pad.free(index)
    assert pad.peak_pages == 3
    assert pad.pages_freed == 3
    assert pad.allocations == 3
    assert pad.used_bytes == 0
