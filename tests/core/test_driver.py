"""SmartDIMM driver: page allocation, MMIO plumbing, reclaim."""

from dataclasses import replace

import pytest

from repro.core.driver import OutOfDeviceMemoryError
from repro.core.dsa.base import UlpKind
from repro.core.dsa.tls_dsa import TLSOffloadContext
from repro.core.offload_api import SessionConfig, SmartDIMMSession
from repro.core.smartdimm import SmartDIMMConfig
from repro.dram.commands import PAGE_SIZE

KEY = bytes(range(16))
NONCE = bytes(12)


def test_alloc_pages_are_contiguous_and_aligned(session):
    base = session.driver.alloc_pages(4)
    assert base % PAGE_SIZE == 0
    other = session.driver.alloc_pages(2)
    pages = set(range(base // PAGE_SIZE, base // PAGE_SIZE + 4))
    assert not pages & set(range(other // PAGE_SIZE, other // PAGE_SIZE + 2))


def test_alloc_avoids_mmio_page(session):
    mmio_page = session.device.mmio_base // PAGE_SIZE
    seen = set()
    try:
        while True:
            base = session.driver.alloc_pages(1)
            seen.add(base // PAGE_SIZE)
    except OutOfDeviceMemoryError:
        pass
    assert mmio_page not in seen


def test_sessions_sharing_a_config_reserve_their_own_mmio_page():
    """The device keeps its MMIO page to itself: a config reused for a
    smaller memory leaves that session's top page reserved, as a fresh
    config does, and the config is not written."""
    shared = SmartDIMMConfig()
    before = replace(shared)
    for memory_bytes in (64 << 20, 32 << 20):
        reused = SmartDIMMSession(SessionConfig(memory_bytes=memory_bytes, smartdimm=shared))
        fresh = SmartDIMMSession(SessionConfig(memory_bytes=memory_bytes))
        assert reused.driver._free_pages == fresh.driver._free_pages
        assert len(fresh.driver._free_pages) == memory_bytes // PAGE_SIZE - 1
    assert shared == before
    assert reused.device.mmio_base == (32 << 20) - PAGE_SIZE


def test_free_and_reuse(session):
    base = session.driver.alloc_pages(2)
    session.driver.free_pages(base)
    again = session.driver.alloc_pages(2)
    assert again == base  # lowest-address first-fit


def test_free_unknown_raises(session):
    with pytest.raises(KeyError):
        session.driver.free_pages(0x123000)


def test_zero_pages_rejected(session):
    with pytest.raises(ValueError):
        session.driver.alloc_pages(0)


def test_read_free_pages_matches_device(session):
    assert session.driver.read_free_pages() == session.device.scratchpad.free_pages


def test_pending_pages_visible_over_mmio(session):
    sbuf = session.driver.alloc_pages(1)
    dbuf = session.driver.alloc_pages(1)
    payload = b"\x10" * (PAGE_SIZE - 16)
    session.write(sbuf, payload + bytes(16))
    session.llc.flush_range(sbuf, PAGE_SIZE)
    context = TLSOffloadContext(key=KEY, nonce=NONCE, record_length=len(payload))
    session.driver.register_offload(UlpKind.TLS_ENCRYPT, context, sbuf, dbuf, pages=1)
    for offset in range(0, PAGE_SIZE, 64):
        session.mc.read_line(sbuf + offset)
    pending = session.driver.read_pending_pages()
    assert dbuf // PAGE_SIZE in pending


def test_reclaim_recycles_pending_lines(session):
    sbuf = session.driver.alloc_pages(1)
    dbuf = session.driver.alloc_pages(1)
    payload = b"\x33" * (PAGE_SIZE - 16)
    session.write(sbuf, payload + bytes(16))
    session.llc.flush_range(sbuf, PAGE_SIZE)
    context = TLSOffloadContext(key=KEY, nonce=NONCE, record_length=len(payload))
    session.driver.register_offload(UlpKind.TLS_ENCRYPT, context, sbuf, dbuf, pages=1)
    for offset in range(0, PAGE_SIZE, 64):
        session.mc.read_line(sbuf + offset)
    recycled = session.driver.reclaim_page(dbuf // PAGE_SIZE)
    assert recycled == 64
    # All state released and DRAM holds the ciphertext.
    assert session.device.translation_table.live_entries == 0
    from repro.ulp.gcm import AESGCM

    assert session.memory.read(dbuf, len(payload)) == AESGCM(KEY).encrypt(NONCE, payload)[0]


def test_reclaim_via_source_page(session):
    sbuf = session.driver.alloc_pages(1)
    dbuf = session.driver.alloc_pages(1)
    session.write(sbuf, bytes(PAGE_SIZE))
    session.llc.flush_range(sbuf, PAGE_SIZE)
    context = TLSOffloadContext(key=KEY, nonce=NONCE, record_length=64)
    session.driver.register_offload(UlpKind.TLS_ENCRYPT, context, sbuf, dbuf, pages=1)
    for offset in range(0, PAGE_SIZE, 64):
        session.mc.read_line(sbuf + offset)
    assert session.driver.reclaim_page(sbuf // PAGE_SIZE) == 64


def test_reclaim_unregistered_page_is_noop(session):
    assert session.driver.reclaim_page(12345) == 0


def test_register_requires_alignment(session):
    context = TLSOffloadContext(key=KEY, nonce=NONCE, record_length=64)
    with pytest.raises(ValueError):
        session.driver.register_offload(UlpKind.TLS_ENCRYPT, context, 100, 0, 1)
