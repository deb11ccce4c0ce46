"""Deflate DSA: hardware-constrained compression on the buffer device.

Adaptation of the fully pipelined FPGA deflate of Fowers et al. (Sec. V-B):

* **8-byte parallelisation window** — the pipeline examines 8 consecutive
  byte positions per step; widening the window improves ratio marginally
  but grows memory ports and logic exponentially (the window is a
  constructor knob so the ablation bench can sweep it).
* **Banked candidate memory** — substring candidates live in an 8-bank
  memory (one hash bucket per row, FIFO replacement).  When two positions
  in the same window hash to the same bank, the later lookup is *discarded*
  (best-effort compression; a missed match costs ratio, never correctness).
* **4 KB history window** — CompCpy offloads one 4 KB page per call, so the
  dictionary never needs to reach outside the page.
* **Fixed Huffman output** — deterministic single-pass latency; the CPU
  baseline's dynamic-Huffman second pass is exactly what the hardware
  design avoids.

Output layout per destination page: a 4-byte little-endian length prefix
followed by the raw DEFLATE stream.  If the compressed page does not fit
(length prefix 0xFFFFFFFF), software falls back to the CPU path — matching
the paper's observation that offload is best-effort.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dram.commands import CACHELINE_SIZE, PAGE_SIZE
from repro.ulp.bitstream import BitWriter
from repro.ulp.deflate import write_fixed_block
from repro.ulp.lz77 import LITERALS, MAX_MATCH, MIN_MATCH, Match, common_prefix_length
from repro.core.dsa.base import DSA, Offload, ScratchpadWriter

OVERFLOW_MARKER = 0xFFFFFFFF
LENGTH_PREFIX_BYTES = 4
MAX_PAYLOAD = PAGE_SIZE - LENGTH_PREFIX_BYTES


class OutOfOrderLineError(Exception):
    """A sbuf line reached the deflate pipeline out of order.

    Deflate is stateful over the input stream, so CompCpy must be called
    with ordered=True for compression offloads (Sec. IV-D); hitting this
    error means the software stack skipped the per-64B memory barriers.
    """


class HardwareMatcher:
    """LZ77 match finder with the banked-memory constraints of the DSA."""

    def __init__(
        self,
        window_bytes: int = 8,
        banks: int = 8,
        bucket_depth: int = 4,
        hash_buckets: int = 512,
        max_match: int = MAX_MATCH,
    ):
        if banks < 1 or window_bytes < 1:
            raise ValueError("banks and window_bytes must be positive")
        if hash_buckets < 1 or bucket_depth < 1:
            raise ValueError("hash_buckets and bucket_depth must be positive")
        if not MIN_MATCH <= max_match <= MAX_MATCH:
            raise ValueError("max_match must lie in [%d, %d]" % (MIN_MATCH, MAX_MATCH))
        self.window_bytes = window_bytes
        self.banks = banks
        self.bucket_depth = bucket_depth
        self.hash_buckets = hash_buckets
        self.max_match = max_match
        self.bank_conflicts = 0
        self.lookups = 0

    def tokenize(self, data: bytes) -> list:
        """Tokenize up to one page of input under hardware constraints.

        One pipeline step examines ``window_bytes`` positions through
        single-ported banks: only the first position per bank in the window
        reads its bucket's candidates (a later same-bank position is a bank
        conflict and finds nothing), and only those positions are inserted,
        after the probes.  Matches then commit left to right.
        """
        n = len(data)
        if n > PAGE_SIZE:
            raise ValueError("deflate DSA operates at 4KB page granularity")
        hash_buckets = self.hash_buckets
        banks = self.banks
        depth = self.bucket_depth
        max_match = self.max_match
        window_bytes = self.window_bytes
        # Per position with MIN_MATCH bytes left, computed once: its first
        # three bytes as one integer (a candidate that differs there cannot
        # match), its bucket and its bank as a bit.
        codes = np.frombuffer(data, dtype=np.uint8).astype(np.intp)
        first, second, third = codes[:-2], codes[1:-1], codes[2:]
        heads = (first << 16 | second << 8 | third).tolist()
        buckets = (first << 6 ^ second << 3 ^ third) % hash_buckets
        bank_bit = [1 << bank for bank in range(banks)]
        bank_bits = list(map(bank_bit.__getitem__, (buckets % banks).tolist()))
        buckets = buckets.tolist()
        last = len(heads)
        table = [[] for _ in range(hash_buckets)]  # FIFO buckets, oldest first
        literal_at = LITERALS.__getitem__
        tokens = []
        lookups = conflicts = 0
        pos = 0
        while pos < n:
            window_end = pos + window_bytes
            if window_end > n:
                window_end = n
            probe_end = window_end if window_end < last else last
            if probe_end > pos:
                lookups += probe_end - pos
            found = []  # (position, length, distance), by position
            used = 0
            for p in range(pos, probe_end):
                bit = bank_bits[p]
                if used & bit:
                    conflicts += 1  # no candidates, no insert
                    continue
                used |= bit
                # Distinct banks mean distinct buckets, so inserting p right
                # after its own probe is the same as after the window's.
                fifo = table[buckets[p]]
                if fifo:
                    head = heads[p]
                    limit = n - p
                    if limit > max_match:
                        limit = max_match
                    best_length = MIN_MATCH - 1
                    for candidate in fifo:
                        if heads[candidate] != head:
                            continue
                        if best_length >= MIN_MATCH:
                            if best_length == limit:
                                break
                            if data[candidate + best_length] != data[p + best_length]:
                                continue  # cannot be longer than the best
                        length = common_prefix_length(data, candidate, p, limit)
                        if length > best_length:
                            best_length = length
                            best_distance = p - candidate
                    if best_length >= MIN_MATCH:
                        found.append((p, best_length, best_distance))
                fifo.append(p)
                if len(fifo) > depth:
                    del fifo[0]  # oldest substring replaced (Sec. V-B)
            # Selection stage: commit matches left to right.
            p = pos
            for start, length, distance in found:
                if start >= p:
                    tokens += map(literal_at, data[p:start])
                    tokens.append(Match(length=length, distance=distance))
                    p = start + length
            if p < window_end:
                tokens += map(literal_at, data[p:window_end])
            pos = max(p, window_end)
        self.lookups += lookups
        self.bank_conflicts += conflicts
        return tokens


@dataclass
class DeflateOffloadContext:
    """Per-page compression context (the banked hash table lives in the
    4 KB config slot, Sec. V-B)."""

    matcher: HardwareMatcher = field(default_factory=HardwareMatcher)
    input_buffer: bytearray = field(default_factory=bytearray)
    input_length: int = PAGE_SIZE
    next_line: int = 0
    compressed_length: int = None  # set at finalisation
    overflow: bool = False

    CONTEXT_BYTES_PER_PAGE = 4096


class DeflateDSA(DSA):
    """Streaming page-granular compressor."""

    def process_line(
        self, offload: Offload, writer: ScratchpadWriter, global_line: int, data: bytes
    ) -> None:
        """Accumulate one in-order input line into the compression window."""
        context = offload.context
        if global_line != context.next_line:
            raise OutOfOrderLineError(
                "deflate line %d arrived, expected %d — CompCpy must use ordered=True"
                % (global_line, context.next_line)
            )
        context.next_line += 1
        context.input_buffer.extend(data)

    def finalize(self, offload: Offload, writer: ScratchpadWriter) -> None:
        """Run the banked matcher, emit the fixed-Huffman stream (or the
        overflow marker) into the destination page."""
        context = offload.context
        data = bytes(context.input_buffer[: context.input_length])
        tokens = context.matcher.tokenize(data)
        bit_writer = BitWriter()
        write_fixed_block(bit_writer, tokens, final=True)
        stream = bit_writer.getvalue()
        if len(stream) > MAX_PAYLOAD:
            context.overflow = True
            context.compressed_length = None
            writer.write_bytes(0, OVERFLOW_MARKER.to_bytes(4, "little"))
        else:
            context.compressed_length = len(stream)
            writer.write_bytes(0, len(stream).to_bytes(4, "little") + stream)
        writer.mark_all_remaining_valid()

    def context_size_bytes(self, context: DeflateOffloadContext) -> int:
        """A full slot: the banked candidate hash table (Sec. V-B)."""
        return context.CONTEXT_BYTES_PER_PAGE


def parse_compressed_page(page: bytes):
    """Split a destination page into its DEFLATE stream, or None on overflow."""
    length = int.from_bytes(page[:4], "little")
    if length == OVERFLOW_MARKER:
        return None
    if length > MAX_PAYLOAD:
        raise ValueError("corrupt length prefix %d" % length)
    return page[4 : 4 + length]


@dataclass
class InflateOffloadContext:
    """Per-page decompression context (RX direction of "(de)compression").

    Input framing mirrors the compressor's output: ``[4-byte stream length]
    [DEFLATE stream]`` in the source page; output is ``[4-byte length]
    [decompressed bytes]``, overflowing to software when a page cannot hold
    the result (the compressor's 4 KB-granularity guarantee makes that rare
    for SmartDIMM-compressed traffic but possible for foreign streams).
    """

    input_buffer: bytearray = field(default_factory=bytearray)
    next_line: int = 0
    output_length: int = None
    overflow: bool = False
    decode_error: bool = False

    CONTEXT_BYTES_PER_PAGE = 4096  # Huffman tables + window in the slot


class InflateDSA(DSA):
    """Streaming page-granular decompressor."""

    def process_line(
        self, offload: Offload, writer: ScratchpadWriter, global_line: int, data: bytes
    ) -> None:
        """Accumulate one in-order compressed line."""
        context = offload.context
        if global_line != context.next_line:
            raise OutOfOrderLineError(
                "inflate line %d arrived, expected %d — CompCpy must use ordered=True"
                % (global_line, context.next_line)
            )
        context.next_line += 1
        context.input_buffer.extend(data)

    def finalize(self, offload: Offload, writer: ScratchpadWriter) -> None:
        """Inflate the accumulated stream into the destination pages (or
        signal fallback on corruption/overflow)."""
        from repro.ulp.deflate import deflate_decompress

        context = offload.context
        stream_length = int.from_bytes(context.input_buffer[:4], "little")
        if stream_length > PAGE_SIZE - LENGTH_PREFIX_BYTES:
            context.decode_error = True
            writer.write_bytes(0, OVERFLOW_MARKER.to_bytes(4, "little"))
            writer.mark_all_remaining_valid()
            return
        stream = bytes(context.input_buffer[4 : 4 + stream_length])
        # Decompression expands: the translation entry points at multiple
        # destination pages ("or multiple pages if the computation does not
        # preserve size", Sec. IV-C), so the output budget spans them all.
        max_output = len(offload.dbuf_pages) * PAGE_SIZE - LENGTH_PREFIX_BYTES
        try:
            output = deflate_decompress(stream, max_output=max_output)
        except (ValueError, EOFError):
            # Corrupt stream or output too large: hardware signals fallback;
            # the CPU path surfaces the precise error.
            context.decode_error = True
            writer.write_bytes(0, OVERFLOW_MARKER.to_bytes(4, "little"))
            writer.mark_all_remaining_valid()
            return
        context.output_length = len(output)
        writer.write_bytes(0, len(output).to_bytes(4, "little") + output)
        writer.mark_all_remaining_valid()

    def context_size_bytes(self, context: InflateOffloadContext) -> int:
        """A full slot: Huffman tables plus the history window."""
        return context.CONTEXT_BYTES_PER_PAGE
