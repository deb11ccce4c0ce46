"""SmartDIMMSession: the high-level public offload API."""

import os
import zlib

import pytest

from repro.core.offload_api import SessionConfig, SmartDIMMSession
from repro.core.dsa.deflate_dsa import HardwareMatcher
from repro.dram.commands import PAGE_SIZE
from repro.ulp.deflate import deflate_compress, deflate_decompress
from repro.ulp.gcm import AESGCM
from repro.ulp.serialization import FieldKind, FieldSpec, Schema, serialize
from repro.workloads.corpus import CorpusKind, generate_corpus

KEY = bytes(range(16))
NONCE = bytes(range(12))


@pytest.mark.parametrize("n", [1, 100, 4095, 4096, 9000])
def test_tls_encrypt_matches_software(session, n):
    payload = bytes((i * 7) & 0xFF for i in range(n))
    out = session.tls_encrypt(KEY, NONCE, payload, aad=b"hdr")
    ct, tag = AESGCM(KEY).encrypt(NONCE, payload, b"hdr")
    assert out == ct + tag


def test_tls_decrypt_round_trip(session):
    payload = generate_corpus(CorpusKind.TEXT, 6000)
    ct, tag = AESGCM(KEY).encrypt(NONCE, payload, b"aad")
    out = session.tls_decrypt(KEY, NONCE, ct, aad=b"aad")
    assert out[:-16] == payload
    assert out[-16:] == tag


def test_deflate_page_round_trip(session):
    data = generate_corpus(CorpusKind.HTML, PAGE_SIZE)
    stream = session.deflate_page(data)
    assert zlib.decompress(stream, -15) == data


def test_deflate_page_overflow_returns_none(session):
    assert session.deflate_page(os.urandom(PAGE_SIZE)) is None


def test_deflate_page_rejects_oversize(session):
    with pytest.raises(ValueError):
        session.deflate_page(bytes(PAGE_SIZE + 1))


def test_deflate_message_page_by_page(session):
    data = generate_corpus(CorpusKind.LOG, 3 * PAGE_SIZE + 500)
    streams = session.deflate_message(data)
    assert len(streams) == 4
    recovered = b"".join(deflate_decompress(s) for s in streams)
    assert recovered == data


def test_deflate_custom_matcher(session):
    data = generate_corpus(CorpusKind.TEXT, PAGE_SIZE)
    stream = session.deflate_page(data, matcher=HardwareMatcher(window_bytes=16, banks=16))
    assert deflate_decompress(stream) == data


def test_many_sequential_offloads_no_leaks(session):
    device = session.device
    for i in range(10):
        payload = bytes(((i + 1) * j) & 0xFF for j in range(2000))
        out = session.tls_encrypt(KEY, NONCE, payload)
        ct, tag = AESGCM(KEY).encrypt(NONCE, payload)
        assert out == ct + tag
    assert device.translation_table.live_entries == 0
    assert device.scratchpad.free_pages == device.config.scratchpad_pages
    assert device.config_memory.used_slots == 0


def test_interleaved_ulps(session):
    """TLS and deflate offloads alternate on the same device."""
    text = generate_corpus(CorpusKind.JSON, PAGE_SIZE)
    for _ in range(3):
        ct = session.tls_encrypt(KEY, NONCE, text[:1000])
        assert ct[:-16] == AESGCM(KEY).encrypt(NONCE, text[:1000])[0]
        stream = session.deflate_page(text)
        assert deflate_decompress(stream) == text


def test_alloc_write_read_free(session):
    address = session.alloc(10000)
    data = os.urandom(10000)
    session.write(address, data)
    assert session.read(address, 10000) == data
    session.free(address)


def test_session_config_defaults():
    config = SessionConfig()
    assert config.smartdimm.scratchpad_pages == 2048
    assert config.smartdimm.translation_slots == 12288


SCHEMA = Schema({1: FieldSpec("user", FieldKind.UINT)})

#: Every offload kind: (object holding the step that fails after
#: registration, that step's name, the call under test).
OFFLOADS = {
    "tls": (lambda s: s.compcpy, "read_buffer",
            lambda s: s.tls_encrypt(KEY, NONCE, bytes(5000))),
    "deflate": (lambda s: s.compcpy, "read_buffer",
                lambda s: s.deflate_page(bytes(PAGE_SIZE))),
    "inflate": (lambda s: s.compcpy, "read_buffer",
                lambda s: s.inflate_page(deflate_compress(bytes(100)))),
    "serde": (lambda s: s.compcpy, "read_buffer",
              lambda s: s.deserialize_message(serialize({"user": 3}, SCHEMA),
                                              SCHEMA)),
    "compute_dma": (lambda s: s.compute_dma, "read_result",
                    lambda s: s.tls_encrypt_dma(KEY, NONCE, bytes(5000))),
}


@pytest.mark.parametrize("kind", sorted(OFFLOADS))
def test_failed_step_aborts_before_freeing(session, monkeypatch, kind):
    """A step after registration raises: the offload is aborted first, so
    page reclaim never waits on a DSA that will not finish."""
    owner, step, run = OFFLOADS[kind]

    def fail(*args, **kwargs):
        raise RuntimeError("injected failure after registration")

    events = []
    driver = session.driver
    abort, free = driver.abort_offload, driver.free_pages
    monkeypatch.setattr(owner(session), step, fail)
    monkeypatch.setattr(driver, "abort_offload",
                        lambda offload: events.append("abort") or abort(offload))
    monkeypatch.setattr(driver, "free_pages",
                        lambda address: events.append("free") or free(address))
    with pytest.raises(RuntimeError, match="injected"):
        run(session)
    assert events == ["abort", "free", "free"]
    device = session.device
    assert device.translation_table.live_entries == 0
    assert device.scratchpad.free_pages == device.config.scratchpad_pages
