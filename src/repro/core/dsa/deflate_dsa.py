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

Every ULP that changes the data's size shares one protocol, which
:class:`PageTransformDSA` owns: source lines must arrive in order
(Sec. IV-D), the result may span several destination pages (Sec. IV-C),
and it lands as a 4-byte little-endian length prefix followed by the
payload — here the raw DEFLATE stream.  If the result does not fit (length
prefix 0xFFFFFFFF), software falls back to the CPU path — matching the
paper's observation that offload is best-effort.  :class:`InflateDSA`
(below) and :class:`~repro.core.dsa.serde_dsa.SerdeDSA` follow the same
protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dram.commands import PAGE_SIZE
from repro.ulp.bitstream import BitWriter
from repro.ulp.deflate import deflate_decompress, write_fixed_block
from repro.ulp.lz77 import LITERALS, MAX_MATCH, MIN_MATCH, Match, common_prefix_length
from repro.core.dsa.base import DSA, Offload, ScratchpadWriter

OVERFLOW_MARKER = 0xFFFFFFFF
LENGTH_PREFIX_BYTES = 4
MAX_PAYLOAD = PAGE_SIZE - LENGTH_PREFIX_BYTES


class OutOfOrderLineError(Exception):
    """A sbuf line reached a page-transform pipeline out of order.

    Deflate, inflate and serde are stateful over the input stream, so
    CompCpy must be called with ordered=True for their offloads
    (Sec. IV-D); hitting this error means the software stack skipped the
    per-64B memory barriers.
    """


def frame_page(payload: bytes) -> bytes:
    """``[4-byte length][payload]``: the framing of a page transform's
    output, and of the inflate and serde DSAs' input."""
    return len(payload).to_bytes(LENGTH_PREFIX_BYTES, "little") + payload


def parse_compressed_page(page: bytes):
    """Split a framed destination page (one or several pages) into its
    payload, or None on overflow; a length prefix larger than the page
    can hold raises ValueError."""
    length = int.from_bytes(page[:LENGTH_PREFIX_BYTES], "little")
    if length == OVERFLOW_MARKER:
        return None
    if length > len(page) - LENGTH_PREFIX_BYTES:
        raise ValueError("corrupt length prefix %d" % length)
    return page[LENGTH_PREFIX_BYTES : LENGTH_PREFIX_BYTES + length]


class PageTransformDSA(DSA):
    """A ULP that changes the data's size, computed in order over pages.

    Source lines accumulate in ``context.input_buffer`` strictly in order
    (``context.next_line`` is the next one expected).  At finalisation
    :meth:`transform` turns the input into at most ``budget`` bytes, which
    land framed by :func:`frame_page` across the destination pages; when
    the transform declines (returns None) or its output exceeds the
    budget, the overflow marker lands instead and software redoes the
    page on the CPU.
    """

    #: ULP name in :class:`OutOfOrderLineError` messages.
    ulp = "page"

    def process_run(
        self,
        offload: Offload,
        writer: ScratchpadWriter,
        first_global_line: int,
        data: bytes,
        count: int,
    ) -> None:
        """Accumulate `count` in-order source lines; a run that does not
        start at the next expected line raises
        :class:`OutOfOrderLineError` before consuming anything."""
        context = offload.context
        if first_global_line != context.next_line:
            raise OutOfOrderLineError(
                "%s line %d arrived, expected %d — CompCpy must use ordered=True"
                % (self.ulp, first_global_line, context.next_line)
            )
        context.next_line += count
        context.input_buffer.extend(data)

    def finalize(self, offload: Offload, writer: ScratchpadWriter) -> None:
        """Frame the transform's output (or the overflow marker) into the
        destination pages and validate every line."""
        budget = len(offload.dbuf_pages) * PAGE_SIZE - LENGTH_PREFIX_BYTES
        output = self.transform(offload.context, budget)
        if output is None or len(output) > budget:
            writer.write_bytes(0, OVERFLOW_MARKER.to_bytes(LENGTH_PREFIX_BYTES, "little"))
        else:
            writer.write_bytes(0, frame_page(output))
        writer.mark_all_remaining_valid()

    def transform(self, context, budget: int):
        """The output for the accumulated input, or None to decline."""
        raise NotImplementedError

    def framed_source(self, context):
        """The payload of a :func:`frame_page`-framed source, or None when
        its length prefix exceeds one page (a corrupt frame)."""
        length = int.from_bytes(context.input_buffer[:LENGTH_PREFIX_BYTES], "little")
        if length > MAX_PAYLOAD:
            return None
        return bytes(context.input_buffer[LENGTH_PREFIX_BYTES : LENGTH_PREFIX_BYTES + length])


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

    CONTEXT_BYTES_PER_PAGE = 4096


class DeflateDSA(PageTransformDSA):
    """Streaming page-granular compressor."""

    ulp = "deflate"

    def transform(self, context: DeflateOffloadContext, budget: int) -> bytes:
        """Run the banked matcher and emit the fixed-Huffman stream."""
        tokens = context.matcher.tokenize(bytes(context.input_buffer[: context.input_length]))
        bit_writer = BitWriter()
        write_fixed_block(bit_writer, tokens, final=True)
        return bit_writer.getvalue()


@dataclass
class InflateOffloadContext:
    """Per-page decompression context (RX direction of "(de)compression").

    The source page holds a :func:`frame_page`-framed DEFLATE stream; the
    output overflows to software when the destination pages cannot hold
    it (the compressor's 4 KB-granularity guarantee makes that rare for
    SmartDIMM-compressed traffic but possible for foreign streams).
    """

    input_buffer: bytearray = field(default_factory=bytearray)
    next_line: int = 0

    CONTEXT_BYTES_PER_PAGE = 4096  # Huffman tables + window in the slot


class InflateDSA(PageTransformDSA):
    """Streaming page-granular decompressor."""

    ulp = "inflate"

    def transform(self, context: InflateOffloadContext, budget: int):
        """Inflate the framed stream, or decline on a corrupt stream or
        one that inflates past the budget (the CPU path then surfaces the
        precise error)."""
        stream = self.framed_source(context)
        if stream is None:
            return None
        # Decompression expands: the translation entry points at multiple
        # destination pages ("or multiple pages if the computation does not
        # preserve size", Sec. IV-C), so the budget spans them all.
        try:
            return deflate_decompress(stream, max_output=budget)
        except (ValueError, EOFError):
            return None
