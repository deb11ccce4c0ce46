"""Deflate DSA: hardware matcher constraints and page-granular compression."""

import os
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dsa.base import Offload, ScratchpadWriter, UlpKind
from repro.core.dsa.deflate_dsa import (
    DeflateDSA,
    DeflateOffloadContext,
    HardwareMatcher,
    OVERFLOW_MARKER,
    OutOfOrderLineError,
    parse_compressed_page,
)
from repro.core.scratchpad import Scratchpad
from repro.dram.commands import CACHELINE_SIZE, LINES_PER_PAGE, PAGE_SIZE
from repro.ulp.deflate import deflate_compress, deflate_decompress
from repro.ulp.lz77 import tokens_to_bytes
from repro.workloads.corpus import CorpusKind, generate_corpus


def _offload(input_length=PAGE_SIZE, matcher=None):
    pad = Scratchpad(total_pages=2)
    context = DeflateOffloadContext(
        matcher=matcher or HardwareMatcher(), input_length=input_length
    )
    offload = Offload(
        offload_id=1,
        kind=UlpKind.DEFLATE,
        context=context,
        sbuf_pages=[0],
        dbuf_pages=[100],
        scratchpad_indices=[pad.allocate(100)],
    )
    return offload, ScratchpadWriter(pad, offload), pad


def _compress_page(data):
    offload, writer, pad = _offload(input_length=len(data))
    dsa = DeflateDSA()
    padded = data + bytes(PAGE_SIZE - len(data))
    for line in range(LINES_PER_PAGE):
        dsa.process_run(
            offload, writer, line, padded[line * CACHELINE_SIZE : (line + 1) * CACHELINE_SIZE], 1
        )
        offload.processed_lines.add(line)
    dsa.finalize(offload, writer)
    return parse_compressed_page(bytes(pad.page(offload.scratchpad_indices[0]).data))


@pytest.mark.parametrize("kind", [CorpusKind.HTML, CorpusKind.TEXT, CorpusKind.JSON, CorpusKind.LOG])
def test_page_compression_round_trip(kind):
    data = generate_corpus(kind, PAGE_SIZE)
    stream = _compress_page(data)
    assert stream is not None
    assert deflate_decompress(stream) == data
    assert zlib.decompress(stream, -15) == data  # external oracle


def test_short_page_round_trip():
    data = b"short page content " * 10
    stream = _compress_page(data)
    assert deflate_decompress(stream) == data


def test_random_page_overflows_to_software_fallback():
    offload, writer, pad = _offload()
    stream = _compress_page(os.urandom(PAGE_SIZE))
    assert stream is None  # OVERFLOW_MARKER -> CPU fallback (Sec. V-B)


def test_overflow_marker_wire_format():
    page = OVERFLOW_MARKER.to_bytes(4, "little") + bytes(PAGE_SIZE - 4)
    assert parse_compressed_page(page) is None


def test_corrupt_length_prefix_rejected():
    page = (5000).to_bytes(4, "little") + bytes(PAGE_SIZE - 4)
    with pytest.raises(ValueError):
        parse_compressed_page(page)


def test_out_of_order_line_raises():
    offload, writer, _ = _offload()
    dsa = DeflateDSA()
    dsa.process_run(offload, writer, 0, bytes(64), 1)
    with pytest.raises(OutOfOrderLineError):
        dsa.process_run(offload, writer, 2, bytes(64), 1)


def test_hardware_ratio_worse_than_software_but_positive():
    """The DSA trades ratio for deterministic latency (Sec. V-B)."""
    data = generate_corpus(CorpusKind.HTML, PAGE_SIZE)
    hardware = len(_compress_page(data))
    software = len(deflate_compress(data, level=6))
    assert hardware >= software  # constrained matcher + fixed Huffman
    assert hardware < PAGE_SIZE * 0.8  # still compresses meaningfully


def test_all_lines_valid_after_finalize():
    offload, writer, pad = _offload()
    _compress_page(generate_corpus(CorpusKind.TEXT, PAGE_SIZE))
    # (fresh offload used inside helper; check via a direct run)
    from repro.core.scratchpad import LineState

    offload, writer, pad = _offload(input_length=PAGE_SIZE)
    dsa = DeflateDSA()
    data = generate_corpus(CorpusKind.TEXT, PAGE_SIZE)
    for line in range(LINES_PER_PAGE):
        dsa.process_run(offload, writer, line, data[line * 64 : line * 64 + 64], 1)
        offload.processed_lines.add(line)
    dsa.finalize(offload, writer)
    page = pad.page(offload.scratchpad_indices[0])
    assert all(s is LineState.VALID for s in page.states)


# -- the hardware matcher in isolation ---------------------------------------------


def test_matcher_rejects_oversized_input():
    with pytest.raises(ValueError):
        HardwareMatcher().tokenize(bytes(PAGE_SIZE + 1))


def test_matcher_counts_bank_conflicts():
    matcher = HardwareMatcher(banks=2)
    # Highly repetitive data hammers few buckets -> conflicts happen.
    matcher.tokenize(b"abababababababab" * 64)
    assert matcher.lookups > 0
    assert matcher.bank_conflicts > 0


def test_matcher_best_effort_still_correct_under_conflicts():
    matcher = HardwareMatcher(banks=1, bucket_depth=1)
    data = generate_corpus(CorpusKind.LOG, PAGE_SIZE)
    assert tokens_to_bytes(matcher.tokenize(data)) == data


@settings(max_examples=30, deadline=None)
@given(data=st.binary(max_size=PAGE_SIZE))
def test_matcher_round_trip_property(data):
    assert tokens_to_bytes(HardwareMatcher().tokenize(data)) == data


@settings(max_examples=15, deadline=None)
@given(
    data=st.text(alphabet="abc xyz", max_size=2048).map(str.encode),
    window=st.sampled_from([4, 8, 16]),
    banks=st.sampled_from([2, 8]),
)
def test_matcher_round_trip_constrained_property(data, window, banks):
    matcher = HardwareMatcher(window_bytes=window, banks=banks, bucket_depth=2)
    assert tokens_to_bytes(matcher.tokenize(data)) == data


def test_wider_window_with_scaled_ports_does_not_hurt_ratio():
    """Sec. V-B: larger parallelisation windows marginally improve ratio —
    *provided* the banked memory scales with the window, which is exactly
    why the area cost grows so fast.  With banks pinned, a wider window only
    adds conflicts."""
    data = generate_corpus(CorpusKind.HTML, PAGE_SIZE)

    def compressed_size(window, banks):
        matcher = HardwareMatcher(window_bytes=window, banks=banks)
        from repro.ulp.bitstream import BitWriter
        from repro.ulp.deflate import write_fixed_block

        writer = BitWriter()
        write_fixed_block(writer, matcher.tokenize(data), final=True)
        return len(writer.getvalue())

    scaled = [compressed_size(w, banks=2 * w) for w in (4, 8, 16)]
    assert max(scaled) <= min(scaled) * 1.12  # ratio ~flat when memory scales
    # Pinning the banks while widening the window degrades best-effort matching.
    assert compressed_size(16, banks=4) >= compressed_size(4, banks=4)


def test_matcher_validates_geometry():
    for geometry in (
        dict(banks=0),
        dict(window_bytes=0),
        dict(hash_buckets=0),
        dict(bucket_depth=0),
        dict(max_match=2),
        dict(max_match=259),
        dict(max_match=300),
    ):
        with pytest.raises(ValueError):
            HardwareMatcher(**geometry)
    for max_match in (3, 258):
        data = b"abcabcabc" * 40
        matcher = HardwareMatcher(max_match=max_match)
        assert tokens_to_bytes(matcher.tokenize(data)) == data


def test_context_declares_full_slot():
    context = DeflateOffloadContext()
    assert DeflateDSA().context_size_bytes(context) == 4096
