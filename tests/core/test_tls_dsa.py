"""TLS DSA: per-cacheline AES-GCM equivalence and order independence."""

import random

import pytest

from repro.core.dsa.base import Offload, ScratchpadWriter, UlpKind
from repro.core.dsa.tls_dsa import (
    BLOCKS_PER_LINE,
    TLSDSA,
    TLSOffloadContext,
    combine_partial_tags,
    gf128_pow,
    weighted_tag_reference,
)
from repro.core.scratchpad import LineState, Scratchpad
from repro.dram.commands import CACHELINE_SIZE, LINES_PER_PAGE, PAGE_SIZE
from repro.ulp.gcm import AESGCM, gf128_mul

KEY = bytes(range(16))
NONCE = bytes(range(12))


def _offload(record_length, aad=b"", decrypt=False, pages=None, positional=False):
    pages = pages or max(1, (record_length + 16 + PAGE_SIZE - 1) // PAGE_SIZE)
    pad = Scratchpad(total_pages=pages + 1)
    context = TLSOffloadContext(
        key=KEY, nonce=NONCE, record_length=record_length, aad=aad, decrypt=decrypt,
        positional=positional,
    )
    offload = Offload(
        offload_id=1,
        kind=UlpKind.TLS_DECRYPT if decrypt else UlpKind.TLS_ENCRYPT,
        context=context,
        sbuf_pages=list(range(pages)),
        dbuf_pages=list(range(100, 100 + pages)),
        scratchpad_indices=[pad.allocate(100 + i) for i in range(pages)],
    )
    return offload, ScratchpadWriter(pad, offload), pad


def _run(offload, writer, payload, order=None):
    dsa = TLSDSA()
    pages = len(offload.sbuf_pages)
    padded = payload + bytes(pages * PAGE_SIZE - len(payload))
    lines = order if order is not None else range(pages * LINES_PER_PAGE)
    for line in lines:
        data = padded[line * CACHELINE_SIZE : (line + 1) * CACHELINE_SIZE]
        dsa.process_run(offload, writer, line, data, 1)
        offload.processed_lines.add(line)
    dsa.finalize(offload, writer)


def _read_output(offload, pad, length):
    out = bytearray()
    for index in offload.scratchpad_indices:
        out += pad.page(index).data
    return bytes(out[:length])


@pytest.mark.parametrize("n", [64, 100, 4096, 5000, 8192 - 16])
def test_encrypt_matches_whole_message_gcm(n):
    payload = bytes((7 * i + n) & 0xFF for i in range(n))
    offload, writer, pad = _offload(n, aad=b"header")
    _run(offload, writer, payload)
    expected_ct, expected_tag = AESGCM(KEY).encrypt(NONCE, payload, b"header")
    assert _read_output(offload, pad, n) == expected_ct
    assert _read_output(offload, pad, n + 16)[n:] == expected_tag


def test_decrypt_recovers_plaintext_and_tag():
    payload = b"decrypt me please " * 100
    ct, tag = AESGCM(KEY).encrypt(NONCE, payload, b"aad")
    offload, writer, pad = _offload(len(ct), aad=b"aad", decrypt=True)
    _run(offload, writer, ct)
    out = _read_output(offload, pad, len(ct) + 16)
    assert out[: len(ct)] == payload
    assert out[len(ct) :] == tag  # CPU compares this against the trailer


def test_out_of_order_lines_same_tag():
    """The design point of Sec. V-A: rdCAS arrival order must not matter."""
    n = 4096 - 16
    payload = bytes((i * 13) & 0xFF for i in range(n))
    expected_ct, expected_tag = AESGCM(KEY).encrypt(NONCE, payload)
    rng = random.Random(11)
    for trial in range(3):
        order = list(range(LINES_PER_PAGE))
        rng.shuffle(order)
        offload, writer, pad = _offload(n)
        _run(offload, writer, payload, order=order)
        out = _read_output(offload, pad, n + 16)
        assert out[:n] == expected_ct
        assert out[n:] == expected_tag


def _image(offload, pad):
    """The offload's scratchpad bytes and line states."""
    pages = [pad.page(index) for index in offload.scratchpad_indices]
    return [(bytes(page.data), list(page.states)) for page in pages]


@pytest.mark.parametrize("positional", [False, True], ids=["serial", "positional"])
@pytest.mark.parametrize("decrypt", [False, True], ids=["encrypt", "decrypt"])
@pytest.mark.parametrize("n", [64, 100, 4096, 4097, 5000, 8192 - 16])
def test_page_runs_equal_shuffled_runs_of_one(n, decrypt, positional):
    """Each page fed as one run (its full, partial and tail lines in one
    call) leaves the same scratchpad bytes, line states and tag or
    partial sum as runs of one in shuffled order.  Before finalisation
    only the full lines are VALID: the partial final line waits for the
    tag, and lines past the record end compute nothing."""
    plaintext = bytes((5 * i + n) & 0xFF for i in range(n))
    ciphertext, tag = AESGCM(KEY).encrypt(NONCE, plaintext, b"hdr")
    source, expected = (ciphertext, plaintext) if decrypt else (plaintext, ciphertext)
    dsa = TLSDSA()
    results = []
    for shuffled in (False, True):
        offload, writer, pad = _offload(n, aad=b"hdr", decrypt=decrypt,
                                        positional=positional)
        pages = len(offload.sbuf_pages)
        padded = source + bytes(pages * PAGE_SIZE - n)
        if shuffled:
            lines = list(range(pages * LINES_PER_PAGE))
            random.Random(n).shuffle(lines)
            for line in lines:
                data = padded[line * CACHELINE_SIZE : (line + 1) * CACHELINE_SIZE]
                dsa.process_run(offload, writer, line, data, 1)
        else:
            for page in range(pages):
                dsa.process_run(offload, writer, page * LINES_PER_PAGE,
                                padded[page * PAGE_SIZE : (page + 1) * PAGE_SIZE],
                                LINES_PER_PAGE)
        staged = _image(offload, pad)
        states = [state for _, page_states in staged for state in page_states]
        full = n // CACHELINE_SIZE
        assert states == ([LineState.VALID] * full
                          + [LineState.NOT_COMPUTED] * (len(states) - full))
        dsa.finalize(offload, writer)
        tag_or_sum = offload.context.partial_tag_sum if positional else None
        results.append((staged, _image(offload, pad), tag_or_sum))
        assert _read_output(offload, pad, n) == expected
        if positional:
            assert combine_partial_tags(KEY, NONCE, n, b"hdr", [tag_or_sum]) == tag
        else:
            assert _read_output(offload, pad, n + 16)[n:] == tag
    assert results[0] == results[1]


def test_all_lines_valid_after_finalize():
    offload, writer, pad = _offload(1000)
    _run(offload, writer, bytes(1000))
    from repro.core.scratchpad import LineState

    page = pad.page(offload.scratchpad_indices[0])
    assert all(state is LineState.VALID for state in page.states)


def test_double_fold_rejected():
    context = TLSOffloadContext(key=KEY, nonce=NONCE, record_length=64)
    context.fold_ciphertext_run(0, bytes(16))
    with pytest.raises(ValueError):
        context.fold_ciphertext_run(0, bytes(16))


def test_premature_finalize_rejected():
    context = TLSOffloadContext(key=KEY, nonce=NONCE, record_length=64)
    with pytest.raises(RuntimeError):
        context.final_tag()


def test_context_fits_config_budget():
    context = TLSOffloadContext(key=KEY, nonce=NONCE, record_length=4096)
    assert TLSDSA().context_size_bytes(context) <= 4096
    assert context.CONTEXT_BYTES_PER_PAGE == 1024


# -- the stride-4 weighted formulation ------------------------------------------------


def test_gf128_pow_basics():
    h = int.from_bytes(AESGCM(KEY).h, "big")
    identity = 1 << 127
    assert gf128_pow(h, 0) == identity
    assert gf128_pow(h, 1) == h
    assert gf128_pow(h, 2) == gf128_mul(h, h)
    assert gf128_pow(h, 5) == gf128_mul(gf128_pow(h, 2), gf128_pow(h, 3))
    with pytest.raises(ValueError):
        gf128_pow(h, -1)


def test_weighted_reference_equals_serial_ghash_any_order():
    """Σ X_j · H^(m-j) — the commutative form behind the stride-4 H powers —
    equals Horner GHASH for every permutation of block arrivals."""
    gcm = AESGCM(KEY)
    blocks = [bytes([i]) * 16 for i in range(6)]
    from repro.ulp.gcm import ghash

    serial = int.from_bytes(ghash(gcm.h, b"".join(blocks)), "big")
    rng = random.Random(2)
    for _ in range(4):
        contributions = list(enumerate(blocks))
        rng.shuffle(contributions)
        assert weighted_tag_reference(gcm.h, contributions, len(blocks)) == serial


def test_blocks_per_line_is_four():
    assert BLOCKS_PER_LINE == 4  # the "strides of 4" in the paper
