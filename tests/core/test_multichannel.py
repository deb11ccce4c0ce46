"""Multi-channel interleaved TLS offload (Sec. V-D)."""

import zlib

import pytest

from repro.core.multichannel import MultiChannelConfig, MultiChannelSession
from repro.core.dsa.tls_dsa import TLSOffloadContext, combine_partial_tags
from repro.dram.commands import PAGE_SIZE
from repro.ulp.gcm import AESGCM
from repro.workloads.corpus import CorpusKind, generate_corpus
from tests.micro_oracle import PerLineLLC

KEY = bytes(range(16))
NONCE = bytes(range(12))


@pytest.fixture
def multi():
    return MultiChannelSession(MultiChannelConfig(channels=4))


def test_striped_tls_matches_software(multi):
    payload = generate_corpus(CorpusKind.TEXT, 6000)
    out = multi.tls_encrypt(KEY, NONCE, payload, aad=b"hdr")
    ct, tag = AESGCM(KEY).encrypt(NONCE, payload, b"hdr")
    assert out[: len(payload)] == ct
    assert out[len(payload) :] == tag


def test_every_device_participates(multi):
    payload = bytes(PAGE_SIZE)
    multi.tls_encrypt(KEY, NONCE, payload)
    for device in multi.devices:
        assert device.stats.dsa_lines_processed == 16  # 64 lines / 4 channels
        assert device.stats.offloads_finalized == 1


def test_two_channel_configuration():
    session = MultiChannelSession(MultiChannelConfig(channels=2))
    payload = generate_corpus(CorpusKind.JSON, 3000)
    out = session.tls_encrypt(KEY, NONCE, payload)
    ct, tag = AESGCM(KEY).encrypt(NONCE, payload)
    assert out == ct + tag
    assert session.devices[0].stats.dsa_lines_processed > 0
    assert session.devices[1].stats.dsa_lines_processed > 0


def test_sequential_records_no_leaks(multi):
    for i in range(3):
        payload = generate_corpus(CorpusKind.LOG, 2000 + 777 * i, seed=i)
        out = multi.tls_encrypt(KEY, NONCE, payload)
        ct, tag = AESGCM(KEY).encrypt(NONCE, payload)
        assert out == ct + tag
    for device in multi.devices:
        assert device.translation_table.live_entries == 0
        assert device.scratchpad.free_pages == device.config.scratchpad_pages


def _observed(session):
    return (session.mc.stats, session.mc.cycle, session.mc.trace,
            list(session.mc._write_queue.items()), session.llc.stats,
            session.llc.resident_lines,
            [device.stats for device in session.devices],
            {page: zlib.crc32(data)
             for page, data in session.memory._pages.items()})


@pytest.mark.parametrize("llc_bytes", (64 * 1024, 2 * 1024 * 1024))
@pytest.mark.parametrize("channels", (1, 2, 4))
def test_llc_range_ops_match_the_per_line_loops(channels, llc_bytes):
    """Buffer writes, reads and the striped copy take the LLC's range
    operations; a twin on the per-line LLC of the test oracle must see
    the same outputs, stats, cycle, trace and DRAM after every op."""
    twins = []
    for per_line in (True, False):
        session = MultiChannelSession(
            MultiChannelConfig(channels=channels, llc_bytes=llc_bytes))
        session.mc.trace = []
        if per_line:
            session.llc.__class__ = PerLineLLC
        twins.append(session)
    buffers = [session.alloc(3 * PAGE_SIZE) for session in twins]
    assert buffers[0] == buffers[1]
    base = buffers[0]
    payload = generate_corpus(CorpusKind.HTML, 2 * PAGE_SIZE + 100, seed=3)
    ops = [
        lambda s: s.write(base, payload),
        lambda s: s.read(base + 10, 2 * PAGE_SIZE),
        lambda s: s.write(base + PAGE_SIZE, payload[:70]),
        lambda s: s.tls_encrypt(KEY, NONCE, generate_corpus(CorpusKind.TEXT, 6000)),
        lambda s: s.read(base, 3 * PAGE_SIZE),
        lambda s: s.tls_encrypt(KEY, NONCE, payload, aad=b"hdr"),
        lambda s: s.read(base + PAGE_SIZE - 1, 2),
    ]
    oracle, session = twins
    for op in ops:
        assert op(session) == op(oracle)
        assert _observed(session) == _observed(oracle)


def test_deflate_rejected(multi):
    with pytest.raises(ValueError, match="single"):
        multi.deflate_page(b"x" * 100)


def test_partial_tag_combination_unit():
    """The CPU combine over arbitrary block partitions equals serial GCM."""
    payload = bytes(range(256)) * 2
    gcm = AESGCM(KEY)
    ct, tag = gcm.encrypt(NONCE, payload, b"aad")
    contexts = [
        TLSOffloadContext(key=KEY, nonce=NONCE, record_length=len(payload),
                          aad=b"aad", positional=True)
        for _ in range(3)
    ]
    for k in range(0, len(ct), 16):
        block = ct[k : k + 16]
        if len(block) < 16:
            block = block + bytes(16 - len(block))
        contexts[(k // 16) % 3].fold_ciphertext_run(k // 16, block)
    combined = combine_partial_tags(
        KEY, NONCE, len(payload), b"aad",
        [c.partial_tag_sum for c in contexts],
    )
    assert combined == tag


def test_positional_double_fold_rejected():
    context = TLSOffloadContext(key=KEY, nonce=NONCE, record_length=64, positional=True)
    context.fold_ciphertext_run(0, bytes(16))
    with pytest.raises(ValueError):
        context.fold_ciphertext_run(0, bytes(16))


def test_partial_sum_requires_positional_mode():
    context = TLSOffloadContext(key=KEY, nonce=NONCE, record_length=64)
    with pytest.raises(RuntimeError):
        context.partial_tag_sum
