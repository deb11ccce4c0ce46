"""Bit-identity of the datapath fast path against the from-scratch reference.

The batched CTR keystream, lane-parallel GHASH, wide-word XOR, cached-EIV
tag path, and the session-keyed context cache must all be *indistinguishable*
from the seed's scalar reference — same ciphertext, same tag, same DEFLATE
streams — across record sizes that straddle every internal threshold
(scalar/vector CTR at 32 blocks, scalar/lane GHASH at 1024 blocks) and
non-multiple-of-16 tails.
"""

import random
import zlib

import pytest

from repro.core.dsa.base import Offload, UlpKind
from repro.core.dsa.tls_dsa import (
    KEYSTREAM_CHUNK_LINES,
    TLSDSA,
    TLSOffloadContext,
)
from repro.dram.commands import CACHELINE_SIZE
from repro.ulp import ctx_cache
from repro.ulp.ctx_cache import cached_aesgcm
from repro.ulp.deflate import deflate_compress
from repro.ulp.gcm import AESGCM, _constant_time_eq, xor_bytes
from repro.ulp.lz77 import HashChainMatcher, tokens_to_bytes
from repro.ulp.tls import TLSRecordLayer

# Sizes chosen to straddle the internal batching thresholds: empty, sub-block,
# one block, the 32-block CTR crossover, the 1024-block GHASH lane crossover,
# and ragged tails on either side of each.
SIZES = [0, 1, 15, 16, 17, 511, 512, 513, 4096, 16383, 16384, 16400, 70000]


def _rng(seed):
    return random.Random(0xD1A0 + seed)


@pytest.mark.parametrize("size", SIZES)
def test_encrypt_matches_reference(size):
    rng = _rng(size)
    key = bytes(rng.randrange(256) for _ in range(rng.choice([16, 24, 32])))
    iv = bytes(rng.randrange(256) for _ in range(rng.choice([8, 12, 16, 60])))
    aad = bytes(rng.randrange(256) for _ in range(rng.randrange(40)))
    plaintext = bytes(rng.randrange(256) for _ in range(size))
    gcm = AESGCM(key)
    assert gcm.encrypt(iv, plaintext, aad) == gcm.encrypt_reference(iv, plaintext, aad)


@pytest.mark.parametrize("size", [0, 1, 17, 513, 4096, 70000])
def test_decrypt_round_trip_and_reference(size):
    rng = _rng(100 + size)
    key = bytes(rng.randrange(256) for _ in range(16))
    iv = bytes(rng.randrange(256) for _ in range(12))
    aad = b"header"
    plaintext = bytes(rng.randrange(256) for _ in range(size))
    gcm = AESGCM(key)
    ciphertext, tag = gcm.encrypt(iv, plaintext, aad)
    assert gcm.decrypt(iv, ciphertext, aad, tag) == plaintext
    assert gcm.decrypt_reference(iv, ciphertext, aad, tag) == plaintext
    with pytest.raises(ValueError):
        gcm.decrypt(iv, ciphertext, aad, bytes(16))


@pytest.mark.parametrize("start_block", [0, 1, 7, 1000])
def test_keystream_matches_reference(start_block):
    rng = _rng(start_block)
    key = bytes(rng.randrange(256) for _ in range(16))
    iv = bytes(rng.randrange(256) for _ in range(12))
    gcm = AESGCM(key)
    for length in (0, 1, 16, 100, 4096):
        assert gcm.keystream(iv, length, start_block) == gcm.keystream_reference(
            iv, length, start_block
        )


def test_cached_eiv_path_identical():
    """tag(eiv=...) must equal the recompute-EIV path bit for bit."""
    rng = _rng(7)
    key = bytes(rng.randrange(256) for _ in range(16))
    iv = bytes(rng.randrange(256) for _ in range(12))
    ciphertext = bytes(rng.randrange(256) for _ in range(1000))
    gcm = AESGCM(key)
    eiv = gcm.encrypted_iv(iv)
    assert gcm.tag(iv, ciphertext, b"aad", eiv=eiv) == gcm.tag(iv, ciphertext, b"aad")
    assert gcm.encrypt(iv, ciphertext, b"aad", eiv=eiv) == gcm.encrypt(iv, ciphertext, b"aad")


def test_tls_record_layer_round_trip_uses_cache():
    ctx_cache.clear_cache()
    key, static_iv = bytes(16), bytes(range(12))
    tx = TLSRecordLayer(key, static_iv)
    rx = TLSRecordLayer(key, static_iv)
    assert tx.gcm is rx.gcm  # one shared context per traffic key
    for fragment in (b"", b"x", b"hello world" * 500):
        record = tx.protect(fragment)
        assert rx.unprotect(record) == (fragment, 23)


def test_constant_time_eq():
    assert _constant_time_eq(b"\x00" * 16, b"\x00" * 16)
    assert _constant_time_eq(b"abc", b"abc")
    assert not _constant_time_eq(b"\x00" * 16, b"\x00" * 15 + b"\x01")
    assert not _constant_time_eq(b"\x80" + b"\x00" * 15, b"\x00" * 16)


def test_context_cache_identity_and_eviction():
    ctx_cache.clear_cache()
    key = bytes(range(16))
    first = cached_aesgcm(key)
    assert cached_aesgcm(key) is first
    info = ctx_cache.cache_info()
    assert info["hits"] == 1 and info["misses"] == 1
    for i in range(ctx_cache.MAX_CACHED_KEYS + 4):
        cached_aesgcm(i.to_bytes(2, "big") + bytes(14))
    assert ctx_cache.cache_info()["size"] <= ctx_cache.MAX_CACHED_KEYS


def test_xor_bytes_matches_bytewise():
    rng = _rng(13)
    for n in (0, 1, 15, 64, 1000):
        a = bytes(rng.randrange(256) for _ in range(n))
        b = bytes(rng.randrange(256) for _ in range(n))
        assert xor_bytes(a, b) == bytes(x ^ y for x, y in zip(a, b))


class _MemoryWriter:
    """Captures DSA writes into a flat buffer (stand-in for the scratchpad)."""

    def __init__(self, size):
        self.buf = bytearray(size)

    def write_line_run(self, first_global_line, data, count):
        start = first_global_line * CACHELINE_SIZE
        self.buf[start : start + len(data)] = data

    def write_bytes(self, offset, data):
        self.buf[offset : offset + len(data)] = data

    def mark_all_remaining_valid(self):
        pass


@pytest.mark.parametrize("record_length", [100, 4096, 4097, 12000])
def test_dsa_out_of_order_lines_match_whole_record(record_length):
    """Shuffled cacheline arrival (crossing keystream-chunk boundaries) must
    produce the same ciphertext and tag as the one-shot software encrypt."""
    rng = _rng(record_length)
    key = bytes(rng.randrange(256) for _ in range(16))
    nonce = bytes(rng.randrange(256) for _ in range(12))
    aad = bytes(rng.randrange(256) for _ in range(21))
    plaintext = bytes(rng.randrange(256) for _ in range(record_length))
    # The chunked keystream cache must be exercised across chunks.
    assert record_length <= 3 * KEYSTREAM_CHUNK_LINES * CACHELINE_SIZE
    context = TLSOffloadContext(
        key=key, nonce=nonce, record_length=record_length, aad=aad
    )
    offload = Offload(
        offload_id=0,
        kind=UlpKind.TLS_ENCRYPT,
        context=context,
        sbuf_pages=[],
        dbuf_pages=[],
    )
    writer = _MemoryWriter(record_length + 16)
    dsa = TLSDSA()
    nlines = (record_length + CACHELINE_SIZE - 1) // CACHELINE_SIZE
    order = list(range(nlines))
    rng.shuffle(order)
    padded = plaintext + bytes(nlines * CACHELINE_SIZE - record_length)
    for line in order:
        dsa.process_run(
            offload, writer, line, padded[line * CACHELINE_SIZE : (line + 1) * CACHELINE_SIZE], 1
        )
    dsa.finalize(offload, writer)
    expected_ct, expected_tag = cached_aesgcm(key).encrypt(nonce, plaintext, aad)
    assert bytes(writer.buf[:record_length]) == expected_ct
    assert bytes(writer.buf[record_length : record_length + 16]) == expected_tag


def test_positional_partials_cross_chunk():
    """Positional (multi-channel) folding with strided line ownership also
    crosses keystream chunks and must reproduce the serial weights."""
    from repro.core.dsa.tls_dsa import combine_partial_tags

    rng = _rng(99)
    key = bytes(rng.randrange(256) for _ in range(16))
    nonce = bytes(rng.randrange(256) for _ in range(12))
    record_length = 2 * KEYSTREAM_CHUNK_LINES * CACHELINE_SIZE  # 8 KB
    plaintext = bytes(rng.randrange(256) for _ in range(record_length))
    ciphertext, expected_tag = cached_aesgcm(key).encrypt(nonce, plaintext, b"")
    contexts = [
        TLSOffloadContext(
            key=key, nonce=nonce, record_length=record_length, positional=True
        )
        for _ in range(2)
    ]
    for block_index in range(record_length // 16):
        block = ciphertext[16 * block_index : 16 * block_index + 16]
        contexts[block_index % 2].fold_ciphertext_run(block_index, block)
    tag = combine_partial_tags(
        key, nonce, record_length, b"", [c.partial_tag_sum for c in contexts]
    )
    assert tag == expected_tag


@pytest.mark.parametrize("knobs", [
    {},
    {"max_chain": 4, "lazy": False},
    {"lazy_cutoff": 8},
    {"nice_length": 16},
    {"max_chain": 1, "lazy_cutoff": 3, "nice_length": 3},
])
def test_matcher_knobs_keep_round_trip(knobs):
    rng = _rng(7 * len(knobs) + sum(knobs.get(k, 0) if isinstance(knobs.get(k), int) else 1 for k in knobs))
    data = bytes(rng.choice(b"abcab") for _ in range(3000)) + bytes(100)
    tokens = HashChainMatcher(**knobs).tokenize(data)
    assert tokens_to_bytes(tokens) == data


def test_matcher_knob_validation():
    with pytest.raises(ValueError):
        HashChainMatcher(max_chain=0)
    with pytest.raises(ValueError):
        HashChainMatcher(lazy_cutoff=2)
    with pytest.raises(ValueError):
        HashChainMatcher(nice_length=300)


@pytest.mark.parametrize("size", [0, 100, 4096, 70000])
def test_deflate_zlib_cross_check(size):
    """DEFLATE streams produced on the optimised matcher stay zlib-valid."""
    rng = _rng(size)
    data = bytes(rng.choice(b"the quick brown fox \x00\xff") for _ in range(size))
    stream = deflate_compress(data, level=6)
    assert zlib.decompress(stream, wbits=-15) == data
