"""The DSA matcher and the Huffman writers against the code they replaced.

The oracles below are the per-byte and per-bit versions that the
hash-once matcher and the wire-order writers replaced, kept verbatim:

* :class:`ReferenceHardwareMatcher` hashes every position twice (probe and
  insert stages), compares candidates byte by byte and builds a
  ``Literal`` per literal byte;
* :class:`ReferenceBitWriter` flushes a byte per loop iteration and
  reverses each Huffman code one bit at a time;
* :func:`reference_symbol_stream` maps lengths and distances by scanning
  the base tables, and :func:`reference_write_symbols` makes one write per
  code and per extra-bits field;
* :func:`reference_deflate_compress` is the CPU compressor over those
  writers, with the chain matcher's inline slab compare.

Tokens, ``lookups``, ``bank_conflicts`` and every emitted byte must match.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dsa.deflate_dsa import HardwareMatcher
from repro.dram.commands import PAGE_SIZE
from repro.ulp.bitstream import BitWriter
from repro.ulp.deflate import (
    BLOCK_DYNAMIC,
    BLOCK_FIXED,
    _LEVEL_PARAMS,
    _build_dynamic_header,
    _dynamic_block_cost,
    _write_stored_blocks,
    deflate_compress,
    write_fixed_block,
)
from repro.ulp.huffman import (
    CODE_LENGTH_ORDER,
    DISTANCE_BASE,
    DISTANCE_EXTRA,
    END_OF_BLOCK,
    LENGTH_BASE,
    LENGTH_EXTRA,
    HuffmanEncoder,
    fixed_distance_lengths,
    fixed_literal_lengths,
    package_merge_lengths,
)
from repro.ulp.lz77 import MAX_MATCH, MIN_MATCH, HashChainMatcher, Literal, Match
from repro.workloads.corpus import CorpusKind, generate_corpus


class ReferenceHardwareMatcher:
    """Oracle for :meth:`HardwareMatcher.tokenize`."""

    def __init__(self, window_bytes=8, banks=8, bucket_depth=4, hash_buckets=512,
                 max_match=258):
        self.window_bytes = window_bytes
        self.banks = banks
        self.bucket_depth = bucket_depth
        self.hash_buckets = hash_buckets
        self.max_match = max_match
        self.bank_conflicts = 0
        self.lookups = 0

    @staticmethod
    def _hash(data, pos):
        return ((data[pos] << 6) ^ (data[pos + 1] << 3) ^ data[pos + 2]) & 0x7FFFFFFF

    def tokenize(self, data):
        if len(data) > PAGE_SIZE:
            raise ValueError("deflate DSA operates at 4KB page granularity")
        table = [[] for _ in range(self.hash_buckets)]
        tokens = []
        pos = 0
        n = len(data)
        while pos < n:
            window_end = min(pos + self.window_bytes, n)
            banks_used = set()
            best_per_position = {}
            for p in range(pos, window_end):
                if p + MIN_MATCH > n:
                    break
                bucket = self._hash(data, p) % self.hash_buckets
                bank = bucket % self.banks
                self.lookups += 1
                if bank in banks_used:
                    self.bank_conflicts += 1
                    candidates = []
                else:
                    banks_used.add(bank)
                    candidates = table[bucket]
                best = None
                for candidate in candidates:
                    length = self._match_length(data, candidate, p, n)
                    if length >= MIN_MATCH and (best is None or length > best[0]):
                        best = (length, p - candidate)
                if best is not None:
                    best_per_position[p] = best
            insert_banks = set()
            for p in range(pos, window_end):
                if p + MIN_MATCH > n:
                    break
                bucket = self._hash(data, p) % self.hash_buckets
                bank = bucket % self.banks
                if bank in insert_banks:
                    continue
                insert_banks.add(bank)
                fifo = table[bucket]
                fifo.append(p)
                if len(fifo) > self.bucket_depth:
                    fifo.pop(0)
            p = pos
            while p < window_end:
                best = best_per_position.get(p)
                if best is not None:
                    length = min(best[0], n - p)
                    tokens.append(Match(length=length, distance=best[1]))
                    p += length
                else:
                    tokens.append(Literal(data[p]))
                    p += 1
            pos = max(p, window_end)
        return tokens

    def _match_length(self, data, candidate, pos, n):
        limit = min(self.max_match, n - pos)
        length = 0
        while length < limit and data[candidate + length] == data[pos + length]:
            length += 1
        return length


class ReferenceBitWriter:
    """Oracle for :class:`repro.ulp.bitstream.BitWriter`."""

    def __init__(self):
        self._bytes = bytearray()
        self._bit_buffer = 0
        self._bit_count = 0

    def write_bits(self, value, count):
        if count < 0:
            raise ValueError("negative bit count")
        self._bit_buffer |= (value & ((1 << count) - 1)) << self._bit_count
        self._bit_count += count
        while self._bit_count >= 8:
            self._bytes.append(self._bit_buffer & 0xFF)
            self._bit_buffer >>= 8
            self._bit_count -= 8

    def write_huffman_code(self, code, length):
        reversed_code = 0
        for _ in range(length):
            reversed_code = (reversed_code << 1) | (code & 1)
            code >>= 1
        self.write_bits(reversed_code, length)

    def align_to_byte(self):
        if self._bit_count:
            self._bytes.append(self._bit_buffer & 0xFF)
            self._bit_buffer = 0
            self._bit_count = 0

    def write_bytes(self, data):
        if self._bit_count:
            raise ValueError("write_bytes requires byte alignment")
        self._bytes.extend(data)

    def getvalue(self):
        out = bytearray(self._bytes)
        if self._bit_count:
            out.append(self._bit_buffer & 0xFF)
        return bytes(out)


def _reference_length_to_symbol(length):
    for i in range(len(LENGTH_BASE) - 1, -1, -1):
        if length >= LENGTH_BASE[i]:
            return 257 + i, length - LENGTH_BASE[i], LENGTH_EXTRA[i]
    raise ValueError("invalid match length %d" % length)


def _reference_distance_to_symbol(distance):
    for i in range(len(DISTANCE_BASE) - 1, -1, -1):
        if distance >= DISTANCE_BASE[i]:
            return i, distance - DISTANCE_BASE[i], DISTANCE_EXTRA[i]
    raise ValueError("invalid match distance %d" % distance)


def reference_symbol_stream(tokens):
    """Oracle for ``repro.ulp.deflate._symbol_stream``."""
    stream = []
    for token in tokens:
        if isinstance(token, Literal):
            stream.append((token.value, 0, 0, None, 0, 0))
        else:
            lsym, lextra, lbits = _reference_length_to_symbol(token.length)
            dsym, dextra, dbits = _reference_distance_to_symbol(token.distance)
            stream.append((lsym, lextra, lbits, dsym, dextra, dbits))
    stream.append((END_OF_BLOCK, 0, 0, None, 0, 0))
    return stream


def reference_write_symbols(writer, stream, literal_encoder, distance_encoder):
    """Oracle for ``repro.ulp.deflate._write_symbols``."""
    for lsym, lextra, lbits, dsym, dextra, dbits in stream:
        code, length = literal_encoder.encode(lsym)
        writer.write_huffman_code(code, length)
        if lbits:
            writer.write_bits(lextra, lbits)
        if dsym is not None:
            code, length = distance_encoder.encode(dsym)
            writer.write_huffman_code(code, length)
            if dbits:
                writer.write_bits(dextra, dbits)


def reference_fixed_block(tokens):
    """Oracle for :func:`repro.ulp.deflate.write_fixed_block` (final block)."""
    writer = ReferenceBitWriter()
    writer.write_bits(1, 1)
    writer.write_bits(BLOCK_FIXED, 2)
    reference_write_symbols(
        writer,
        reference_symbol_stream(tokens),
        HuffmanEncoder(fixed_literal_lengths()),
        HuffmanEncoder(fixed_distance_lengths()),
    )
    return writer.getvalue()


class ReferenceChainMatcher(HashChainMatcher):
    """The chain matcher with its slab compare inline, as it was."""

    def _longest_match(self, data, pos, head, prev):
        if pos + MIN_MATCH > len(data):
            return None
        limit = max(0, pos - self.window_size)
        candidate = head.get(self._hash(data, pos), -1)
        best_length = MIN_MATCH - 1
        best_distance = 0
        chain_budget = self.max_chain
        max_length = min(MAX_MATCH, len(data) - pos)
        while candidate >= limit and chain_budget > 0:
            chain_budget -= 1
            if (
                best_length >= MIN_MATCH
                and data[candidate + best_length] != data[pos + best_length]
            ):
                candidate = prev.get(candidate, -1)
                continue
            length = 0
            while length < max_length:
                span = min(32, max_length - length)
                if (
                    data[candidate + length : candidate + length + span]
                    == data[pos + length : pos + length + span]
                ):
                    length += span
                    continue
                while (
                    length < max_length
                    and data[candidate + length] == data[pos + length]
                ):
                    length += 1
                break
            if length > best_length:
                best_length = length
                best_distance = pos - candidate
                if length >= max_length or length >= self.nice_length:
                    break
            candidate = prev.get(candidate, -1)
        if best_length >= MIN_MATCH:
            return Match(length=best_length, distance=best_distance)
        return None


def reference_deflate_compress(data, level=6):
    """Oracle for :func:`repro.ulp.deflate.deflate_compress`."""
    writer = ReferenceBitWriter()
    if not data:
        writer.write_bits(1, 1)
        writer.write_bits(BLOCK_FIXED, 2)
        encoder = HuffmanEncoder(fixed_literal_lengths())
        code, length = encoder.encode(END_OF_BLOCK)
        writer.write_huffman_code(code, length)
        return writer.getvalue()
    tokens = ReferenceChainMatcher(**_LEVEL_PARAMS[level]).tokenize(data)
    stream = reference_symbol_stream(tokens)
    literal_freq = {}
    distance_freq = {}
    for lsym, _, _, dsym, _, _ in stream:
        literal_freq[lsym] = literal_freq.get(lsym, 0) + 1
        if dsym is not None:
            distance_freq[dsym] = distance_freq.get(dsym, 0) + 1
    literal_lengths = package_merge_lengths(literal_freq)
    distance_lengths = package_merge_lengths(distance_freq) if distance_freq else {0: 1}
    hlit, hdist, hclen, cl_encoder, cl_entries, header_bits = _build_dynamic_header(
        literal_lengths, distance_lengths
    )
    dynamic_bits = _dynamic_block_cost(stream, literal_lengths, distance_lengths, header_bits)
    fixed_bits = _dynamic_block_cost(stream, fixed_literal_lengths(), fixed_distance_lengths(), 3)
    stored_bits = 8 * (5 * ((len(data) + 65534) // 65535) + len(data)) + 3 + 7
    best = min(dynamic_bits, fixed_bits, stored_bits)
    if best == stored_bits:
        _write_stored_blocks(writer, data)
    elif best == fixed_bits:
        writer.write_bits(1, 1)
        writer.write_bits(BLOCK_FIXED, 2)
        reference_write_symbols(writer, stream, HuffmanEncoder(fixed_literal_lengths()),
                                HuffmanEncoder(fixed_distance_lengths()))
    else:
        writer.write_bits(1, 1)
        writer.write_bits(BLOCK_DYNAMIC, 2)
        writer.write_bits(hlit, 5)
        writer.write_bits(hdist, 5)
        writer.write_bits(hclen - 4, 4)
        for symbol in CODE_LENGTH_ORDER[:hclen]:
            writer.write_bits(cl_encoder.lengths.get(symbol, 0), 3)
        for symbol, extra_value, extra_bits in cl_entries:
            code, length = cl_encoder.encode(symbol)
            writer.write_huffman_code(code, length)
            if extra_bits:
                writer.write_bits(extra_value, extra_bits)
        reference_write_symbols(writer, stream, HuffmanEncoder(literal_lengths),
                                HuffmanEncoder(distance_lengths))
    return writer.getvalue()


# -- inputs --------------------------------------------------------------------------

_SIZES = st.one_of(st.sampled_from([0, 1, 2, 3, 4, 4095, PAGE_SIZE]), st.integers(0, PAGE_SIZE))


@st.composite
def _pages(draw):
    """A corpus page of any of the five kinds, or a highly repetitive one."""
    size = draw(_SIZES)
    if draw(st.integers(0, 5)) == 0:
        unit = draw(st.binary(min_size=1, max_size=5))
        return (unit * (size // len(unit) + 1))[:size]
    kind = draw(st.sampled_from(list(CorpusKind)))
    return generate_corpus(kind, size, draw(st.integers(0, 1 << 16)))


_GEOMETRY = st.fixed_dictionaries({
    "window_bytes": st.sampled_from([4, 8, 16]),
    "banks": st.sampled_from([1, 2, 8]),
    "bucket_depth": st.sampled_from([1, 2, 4]),
    "hash_buckets": st.sampled_from([64, 512]),
})


# -- properties ----------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(pages=st.lists(_pages(), min_size=1, max_size=2), geometry=_GEOMETRY)
def test_matcher_and_fixed_writer_match_reference(pages, geometry):
    """Same tokens and fixed-block bytes per page; the counters accumulate
    over pages exactly as the reference's do."""
    matcher = HardwareMatcher(**geometry)
    reference = ReferenceHardwareMatcher(**geometry)
    for page in pages:
        tokens = matcher.tokenize(page)
        expected = reference.tokenize(page)
        assert tokens == expected
        assert (matcher.lookups, matcher.bank_conflicts) == (
            reference.lookups, reference.bank_conflicts)
        writer = BitWriter()
        write_fixed_block(writer, tokens, final=True)
        assert writer.getvalue() == reference_fixed_block(expected)


@settings(max_examples=25, deadline=None)
@given(page=_pages())
def test_default_matcher_matches_reference(page):
    reference = ReferenceHardwareMatcher()
    matcher = HardwareMatcher()
    assert matcher.tokenize(page) == reference.tokenize(page)
    assert (matcher.lookups, matcher.bank_conflicts) == (
        reference.lookups, reference.bank_conflicts)


@settings(max_examples=30, deadline=None)
@given(
    data=st.one_of(
        st.binary(max_size=600),
        st.builds(generate_corpus, st.sampled_from(list(CorpusKind)),
                  st.integers(0, 1500), st.integers(0, 1 << 16)),
    ),
    level=st.sampled_from([1, 4, 6, 9]),
)
def test_deflate_compress_matches_reference(data, level):
    assert deflate_compress(data, level=level) == reference_deflate_compress(data, level)
