"""The SmartDIMM buffer device: arbiter states, MMIO, registration."""

import pytest

from repro.core.offload_api import SessionConfig, SmartDIMMSession
from repro.core.scratchpad import LineState
from repro.core.smartdimm import (
    MMIO_MAGIC,
    _parse_register_record,
    pack_register_record,
)
from repro.core.dsa.base import OffloadState, UlpKind
from repro.core.dsa.tls_dsa import TLSOffloadContext
from repro.dram.commands import CACHELINE_SIZE, PAGE_SIZE, CommandType

KEY = bytes(range(16))
NONCE = bytes(12)


def _session(**kwargs):
    return SmartDIMMSession(SessionConfig(memory_bytes=16 * 1024 * 1024,
                                          llc_bytes=512 * 1024, **kwargs))


def test_mmio_record_pack_parse_round_trip():
    record = pack_register_record(
        offload_id=7, sbuf_page=123, dbuf_page=456, position=2, total_pages=4
    )
    assert len(record) == CACHELINE_SIZE
    parsed = _parse_register_record(record)
    from repro.core.dsa.base import OffloadTrigger

    assert parsed == {
        "offload_id": 7,
        "sbuf_page": 123,
        "dbuf_page": 456,
        "position": 2,
        "total_pages": 4,
        "trigger": OffloadTrigger.SOURCE_READ,
    }
    write_fed = pack_register_record(1, 2, 3, 0, 1, trigger=OffloadTrigger.SOURCE_WRITE)
    assert _parse_register_record(write_fed)["trigger"] is OffloadTrigger.SOURCE_WRITE


def test_mmio_bad_magic_rejected():
    with pytest.raises(ValueError):
        _parse_register_record(bytes(64))


def test_mmio_unknown_opcode_rejected():
    record = bytearray(pack_register_record(1, 1, 2, 0, 1))
    record[2] = 99
    with pytest.raises(ValueError):
        _parse_register_record(bytes(record))


def test_plain_dimm_behaviour_outside_acceleration_range():
    session = _session()
    address = session.driver.alloc_pages(1)
    session.mc.write_line_now(address, b"\x5a" * 64)
    assert session.mc.read_line(address) == b"\x5a" * 64
    assert session.device.stats.normal_writes >= 1
    assert session.device.stats.normal_reads >= 1


def test_address_regeneration_checks_every_cas():
    """Every CAS counts one address regeneration: a run of one
    (``read_line``, ``write_line_now``) and each line of a longer burst
    alike, and an MMIO ``Command`` too."""
    session = _session()
    address = session.driver.alloc_pages(1)
    stats = session.device.stats
    before = stats.address_regenerations
    session.mc.read_line(address)
    assert stats.address_regenerations == before + 1
    session.mc.write_line_now(address + CACHELINE_SIZE, bytes(CACHELINE_SIZE))
    assert stats.address_regenerations == before + 2
    data, error = session.mc.read_lines(address + 2 * CACHELINE_SIZE, 8)
    assert error is None and len(data) == 8 * CACHELINE_SIZE
    assert stats.address_regenerations == before + 10
    session.mc.read_line(session.device.mmio_status_address)
    assert stats.address_regenerations == before + 11


def test_bank_table_out_of_step_fails_address_regeneration():
    """A ``Command``-path CAS regenerates its address from the bank
    table's open row, so a table that disagrees with the controller's
    open row raises instead of serving the wrong line."""
    session = _session()
    status = session.device.mmio_status_address
    session.mc.read_line(status)  # opens the MMIO row on both sides
    coordinate = session.mapping.line_coordinate(status)
    session.device.bank_table.activate(
        coordinate.bank_group, coordinate.bank, coordinate.row ^ 1)
    with pytest.raises(RuntimeError, match="address regeneration mismatch"):
        session.mc.read_line(status)


def test_data_cas_command_outside_mmio_is_a_controller_bug():
    """Data CASes outside the MMIO page arrive as bursts, so the device
    refuses one sent as a ``Command``."""
    session = _session()
    address = session.driver.alloc_pages(1)
    session.mc.read_line(address)  # opens the row on both sides
    with pytest.raises(RuntimeError, match="outside the MMIO page"):
        session.mc._issue_cas(address, CommandType.RDCAS, b"")


def test_mmio_status_reports_free_pages():
    session = _session()
    status = session.mc.read_line(session.device.mmio_status_address)
    free = int.from_bytes(status[0:8], "little")
    assert free == session.device.config.scratchpad_pages


def test_registration_allocates_and_deregistration_frees():
    session = _session()
    device = session.device
    sbuf = session.driver.alloc_pages(1)
    dbuf = session.driver.alloc_pages(1)
    session.write(sbuf, b"x" * PAGE_SIZE)
    context = TLSOffloadContext(key=KEY, nonce=NONCE, record_length=PAGE_SIZE - 16)
    session.compcpy.compcpy(dbuf, sbuf, PAGE_SIZE, context, UlpKind.TLS_ENCRYPT)
    # After the CompCpy flush, lines recycle; any stragglers are reclaimed on free.
    session.driver.free_pages(sbuf)
    session.driver.free_pages(dbuf)
    assert device.translation_table.live_entries == 0
    assert device.scratchpad.free_pages == device.config.scratchpad_pages
    assert device.config_memory.used_slots == 0
    assert device.stats.pages_registered == device.stats.pages_deregistered == 2


def test_offload_lifecycle_states():
    session = _session()
    sbuf = session.driver.alloc_pages(1)
    dbuf = session.driver.alloc_pages(1)
    context = TLSOffloadContext(key=KEY, nonce=NONCE, record_length=100)
    offload = session.driver.register_offload(
        UlpKind.TLS_ENCRYPT, context, sbuf, dbuf, pages=1
    )
    assert offload.state is OffloadState.IN_PROGRESS
    # Drive every sbuf line through the device: the offload finalises.
    for line_address in range(sbuf, sbuf + PAGE_SIZE, CACHELINE_SIZE):
        session.mc.read_line(line_address)
    assert offload.state is OffloadState.FINALIZED
    assert session.device.stats.offloads_finalized == 1


def test_source_reread_is_idempotent():
    """Cache refetches of sbuf lines must not double-process (GHASH RMW)."""
    session = _session()
    sbuf = session.driver.alloc_pages(1)
    dbuf = session.driver.alloc_pages(1)
    payload = bytes(range(256)) * 15  # 3840 bytes
    session.write(sbuf, payload + bytes(PAGE_SIZE - len(payload)))
    session.llc.flush_range(sbuf, PAGE_SIZE)
    context = TLSOffloadContext(key=KEY, nonce=NONCE, record_length=len(payload))
    session.driver.register_offload(UlpKind.TLS_ENCRYPT, context, sbuf, dbuf, pages=1)
    for repeat in range(2):  # second sweep re-reads every line
        for line_address in range(sbuf, sbuf + PAGE_SIZE, CACHELINE_SIZE):
            session.mc.read_line(line_address)
    assert session.device.stats.dsa_lines_processed == 64
    from repro.ulp.gcm import AESGCM

    expected_ct, expected_tag = AESGCM(KEY).encrypt(NONCE, payload)
    index = session.device.offload(1).scratchpad_indices[0]
    staged = bytes(session.device.scratchpad.page(index).data)
    assert staged[: len(payload)] == expected_ct
    assert staged[len(payload) : len(payload) + 16] == expected_tag


def test_s7_premature_writeback_ignored():
    """A dbuf wrCAS before the DSA finishes must be dropped (S7)."""
    config_kwargs = dict(memory_bytes=16 * 1024 * 1024, llc_bytes=512 * 1024)
    session = SmartDIMMSession(SessionConfig(**config_kwargs))
    # Huge DSA latency so every early write hits the pending window.
    session.device.config.dsa_line_latency_cycles = 10**9
    sbuf = session.driver.alloc_pages(1)
    dbuf = session.driver.alloc_pages(1)
    context = TLSOffloadContext(key=KEY, nonce=NONCE, record_length=64)
    session.driver.register_offload(UlpKind.TLS_ENCRYPT, context, sbuf, dbuf, pages=1)
    session.mc.read_line(sbuf)  # line 0 computed but not "ready" for 1e9 cycles
    before = session.device.stats.ignored_writes
    session.mc.write_line_now(dbuf, b"\xff" * 64)
    assert session.device.stats.ignored_writes == before + 1
    # The scratchpad still owns the line.
    index = session.device.offload(1).scratchpad_indices[0]
    assert session.device.scratchpad.line_state(index, 0) is LineState.VALID


def test_s13_pending_read_asserts_alert_n():
    session = _session()
    session.device.config.dsa_line_latency_cycles = 2000
    sbuf = session.driver.alloc_pages(1)
    dbuf = session.driver.alloc_pages(1)
    context = TLSOffloadContext(key=KEY, nonce=NONCE, record_length=64)
    session.driver.register_offload(UlpKind.TLS_ENCRYPT, context, sbuf, dbuf, pages=1)
    session.mc.read_line(sbuf)
    before_alerts = session.device.stats.alerts
    data = session.mc.read_line(dbuf)  # pending -> ALERT_N -> retried until ready
    assert session.device.stats.alerts > before_alerts
    assert session.mc.stats.alerts > 0
    from repro.ulp.gcm import AESGCM

    assert data == AESGCM(KEY).encrypt(NONCE, bytes(64))[0][:64]


def test_s10_read_served_from_scratchpad():
    session = _session()
    sbuf = session.driver.alloc_pages(1)
    dbuf = session.driver.alloc_pages(1)
    payload = b"\x21" * 64
    session.write(sbuf, payload + bytes(PAGE_SIZE - 64))
    session.llc.flush_range(sbuf, PAGE_SIZE)
    context = TLSOffloadContext(key=KEY, nonce=NONCE, record_length=64)
    session.driver.register_offload(UlpKind.TLS_ENCRYPT, context, sbuf, dbuf, pages=1)
    for line_address in range(sbuf, sbuf + PAGE_SIZE, CACHELINE_SIZE):
        session.mc.read_line(line_address)
    session.mc.cycle += 10_000  # let the DSA latency elapse
    before = session.device.stats.scratchpad_serves
    data = session.mc.read_line(dbuf)
    assert session.device.stats.scratchpad_serves == before + 1
    from repro.ulp.gcm import AESGCM

    assert data == AESGCM(KEY).encrypt(NONCE, payload)[0]
    # DRAM itself still holds zeros: the line has not recycled yet.
    assert session.memory.read_line(dbuf) == bytes(64)


def test_self_recycle_replaces_writeback_data():
    """S8/S9: the wrCAS burst is REPLACED with the scratchpad data."""
    session = _session()
    sbuf = session.driver.alloc_pages(1)
    dbuf = session.driver.alloc_pages(1)
    payload = b"\x42" * 64
    session.write(sbuf, payload + bytes(PAGE_SIZE - 64))
    session.llc.flush_range(sbuf, PAGE_SIZE)
    context = TLSOffloadContext(key=KEY, nonce=NONCE, record_length=64)
    session.driver.register_offload(UlpKind.TLS_ENCRYPT, context, sbuf, dbuf, pages=1)
    for line_address in range(sbuf, sbuf + PAGE_SIZE, CACHELINE_SIZE):
        session.mc.read_line(line_address)
    session.mc.cycle += 10_000
    session.mc.write_line_now(dbuf, b"\xee" * 64)  # plaintext writeback
    from repro.ulp.gcm import AESGCM

    assert session.memory.read_line(dbuf) == AESGCM(KEY).encrypt(NONCE, payload)[0]
    assert session.device.stats.self_recycles >= 1
