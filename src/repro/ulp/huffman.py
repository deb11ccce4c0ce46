"""Huffman coding for DEFLATE (RFC 1951 Sec. 3.2).

Provides canonical code construction (including optimal length-limited codes
via the package-merge algorithm), the fixed literal/length and distance
codes, and the length/distance symbol tables shared by the compressor,
decompressor, and the deflate DSA.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from functools import lru_cache

from repro.ulp.bitstream import reverse_bits
from repro.ulp.lz77 import MAX_DISTANCE, MAX_MATCH, MIN_MATCH

MAX_CODE_LENGTH = 15

# Length symbol table (RFC 1951 Sec. 3.2.5): symbol 257 + i encodes lengths
# starting at _LENGTH_BASE[i] with _LENGTH_EXTRA[i] extra bits.
LENGTH_BASE = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31,
    35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258,
]
LENGTH_EXTRA = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2,
    3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
]
DISTANCE_BASE = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193,
    257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145,
    8193, 12289, 16385, 24577,
]
DISTANCE_EXTRA = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6,
    7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13,
]

END_OF_BLOCK = 256

# Order in which code-length-code lengths appear in a dynamic block header.
CODE_LENGTH_ORDER = [16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15]


# Symbol index per match length, and per distance slot: a distance d takes
# slot d - 1 up to 256 and slot 256 + ((d - 1) >> 7) above, where every
# code's base is 1 more than a multiple of 128 (zlib's two-level split).
_LENGTH_INDEX = bytes(
    bisect_right(LENGTH_BASE, length) - 1 for length in range(MIN_MATCH, MAX_MATCH + 1)
)
_DISTANCE_INDEX = bytes(
    bisect_right(DISTANCE_BASE, slot + 1 if slot < 256 else ((slot - 256) << 7) + 1) - 1
    for slot in range(512)
)


def length_to_symbol(length: int) -> tuple:
    """Map a match length (3..258) to (symbol, extra_bits_value, extra_bits)."""
    if not MIN_MATCH <= length <= MAX_MATCH:
        raise ValueError("invalid match length %d" % length)
    index = _LENGTH_INDEX[length - MIN_MATCH]
    return 257 + index, length - LENGTH_BASE[index], LENGTH_EXTRA[index]


def distance_to_symbol(distance: int) -> tuple:
    """Map a match distance (1..32768) to (symbol, extra_bits_value, extra_bits)."""
    if not 1 <= distance <= MAX_DISTANCE:
        raise ValueError("invalid match distance %d" % distance)
    index = _DISTANCE_INDEX[distance - 1 if distance <= 256 else 256 + ((distance - 1) >> 7)]
    return index, distance - DISTANCE_BASE[index], DISTANCE_EXTRA[index]


def package_merge_lengths(frequencies: dict, limit: int = MAX_CODE_LENGTH) -> dict:
    """Optimal length-limited Huffman code lengths (package-merge).

    `frequencies` maps symbol -> count (counts must be positive).  Returns
    symbol -> code length.  With a single symbol, the length is 1 (DEFLATE
    requires at least one bit per code).
    """
    symbols = sorted(frequencies)
    if not symbols:
        return {}
    if len(symbols) == 1:
        return {symbols[0]: 1}
    if len(symbols) > (1 << limit):
        raise ValueError("alphabet too large for %d-bit codes" % limit)
    # Each item is (weight, {symbol: count-of-activations}).
    originals = [(frequencies[s], {s: 1}) for s in symbols]
    packages = sorted(originals, key=lambda item: item[0])
    merged_rows = []
    for _ in range(limit - 1):
        paired = []
        for i in range(0, len(packages) - 1, 2):
            weight = packages[i][0] + packages[i + 1][0]
            members = dict(packages[i][1])
            for symbol, count in packages[i + 1][1].items():
                members[symbol] = members.get(symbol, 0) + count
            paired.append((weight, members))
        packages = sorted(paired + originals, key=lambda item: item[0])
        merged_rows.append(packages)
    take = 2 * len(symbols) - 2
    lengths = dict.fromkeys(symbols, 0)
    for weight, members in packages[:take]:
        for symbol, count in members.items():
            lengths[symbol] += count
    return lengths


def canonical_codes(lengths: dict) -> dict:
    """Assign canonical Huffman codes given symbol -> length (RFC 1951 3.2.2)."""
    bl_count = [0] * (MAX_CODE_LENGTH + 1)
    for length in lengths.values():
        if length:
            bl_count[length] += 1
    next_code = [0] * (MAX_CODE_LENGTH + 2)
    code = 0
    for bits in range(1, MAX_CODE_LENGTH + 1):
        code = (code + bl_count[bits - 1]) << 1
        next_code[bits] = code
    codes = {}
    for symbol in sorted(lengths):
        length = lengths[symbol]
        if length:
            codes[symbol] = next_code[length]
            next_code[length] += 1
    return codes


def validate_kraft(lengths: dict) -> bool:
    """Check that the code lengths satisfy the Kraft inequality with equality
    allowed only when <= 1 (a complete or under-full code)."""
    total = sum(1 << (MAX_CODE_LENGTH - L) for L in lengths.values() if L)
    return total <= (1 << MAX_CODE_LENGTH)


class HuffmanEncoder:
    """Symbol -> (code, length) encoder built from code lengths.

    ``wire`` maps each symbol to its code bit-reversed, as
    :meth:`repro.ulp.bitstream.BitWriter.write_bits` takes it, and its length.
    """

    def __init__(self, lengths: dict):
        if not validate_kraft(lengths):
            raise ValueError("code lengths violate the Kraft inequality")
        self.lengths = dict(lengths)
        self.codes = canonical_codes(lengths)
        self.wire = {
            symbol: (reverse_bits(code, self.lengths[symbol]), self.lengths[symbol])
            for symbol, code in self.codes.items()
        }

    @classmethod
    def from_frequencies(cls, frequencies: dict, limit: int = MAX_CODE_LENGTH):
        return cls(package_merge_lengths(frequencies, limit))

    def encode(self, symbol: int) -> tuple:
        """Return (code, bit_length) for `symbol`."""
        return self.codes[symbol], self.lengths[symbol]

    def __contains__(self, symbol: int) -> bool:
        return symbol in self.codes


class HuffmanDecoder:
    """Table-driven canonical Huffman decoder.

    One lookup list covers every value of the next ``max_length`` stream
    bits.  An entry is ``symbol << 4 | length`` for the code those bits
    start with, or -1 where no code starts.  A code whose value does not
    fit its length is left out: an over-subscribed set, which a corrupt
    dynamic header can carry, numbers some codes past their length, and a
    bit-serial walk never matches those.  Canonical numbering starts each
    length above every shorter code, so no two codes that fit are prefixes
    of one another and no entry is claimed twice.  The bit-serial walk is
    kept in ``tests/ulp/test_inflate_oracle.py`` as this decoder's oracle.
    """

    def __init__(self, lengths: dict):
        codes = canonical_codes(lengths)
        self._max_length = max_length = max((L for L in lengths.values() if L), default=0)
        self._mask = (1 << max_length) - 1
        table = [-1] * (1 << max_length)
        for symbol, code in codes.items():
            length = lengths[symbol]
            if code >> length:
                continue
            # Every index whose low `length` bits are the code as read.
            table[reverse_bits(code, length) :: 1 << length] = [symbol << 4 | length] * (
                1 << (max_length - length)
            )
        self._table = table

    def decode(self, reader) -> int:
        """Decode one symbol from a :class:`repro.ulp.bitstream.BitReader`."""
        position = reader.position
        start = position >> 3
        # Three bytes hold the longest code (15 bits) at any bit offset.
        entry = self._table[
            int.from_bytes(reader.data[start : start + 3], "little") >> (position & 7) & self._mask
        ]
        available = reader.end - position
        if entry < 0:
            if available < self._max_length:
                raise EOFError("bit stream exhausted")
            raise ValueError("invalid Huffman code in stream")
        length = entry & 15
        if length > available:
            raise EOFError("bit stream exhausted")
        reader.position = position + length
        return entry >> 4


@lru_cache(maxsize=None)
def fixed_encoders() -> tuple:
    """The fixed literal/length and distance encoders, built once."""
    return HuffmanEncoder(fixed_literal_lengths()), HuffmanEncoder(fixed_distance_lengths())


@lru_cache(maxsize=None)
def fixed_decoders() -> tuple:
    """The fixed literal/length and distance decoders, built once."""
    return HuffmanDecoder(fixed_literal_lengths()), HuffmanDecoder(fixed_distance_lengths())


def fixed_literal_lengths() -> dict:
    """Code lengths of the fixed literal/length code (RFC 1951 Sec. 3.2.6)."""
    lengths = {}
    for symbol in range(0, 144):
        lengths[symbol] = 8
    for symbol in range(144, 256):
        lengths[symbol] = 9
    for symbol in range(256, 280):
        lengths[symbol] = 7
    for symbol in range(280, 288):
        lengths[symbol] = 8
    return lengths


def fixed_distance_lengths() -> dict:
    """Code lengths of the fixed distance code: 5 bits for all 30 symbols."""
    return {symbol: 5 for symbol in range(30)}


def encode_code_lengths(lengths_sequence: list) -> list:
    """Run-length encode a code-length sequence with symbols 16/17/18.

    Returns a list of (symbol, extra_value, extra_bits) tuples per
    RFC 1951 Sec. 3.2.7.
    """
    out = []
    i = 0
    n = len(lengths_sequence)
    while i < n:
        value = lengths_sequence[i]
        run = 1
        while i + run < n and lengths_sequence[i + run] == value:
            run += 1
        i += run
        if value == 0:
            while run >= 11:
                chunk = min(run, 138)
                out.append((18, chunk - 11, 7))
                run -= chunk
            if run >= 3:
                out.append((17, run - 3, 3))
                run = 0
            for _ in range(run):
                out.append((0, 0, 0))
        else:
            out.append((value, 0, 0))
            run -= 1
            while run >= 3:
                chunk = min(run, 6)
                out.append((16, chunk - 3, 2))
                run -= chunk
            for _ in range(run):
                out.append((value, 0, 0))
    return out


def decode_code_lengths(entries: list, total: int) -> list:
    """Inverse of :func:`encode_code_lengths` given decoded (symbol, extra)
    pairs; used by the dynamic-block reader in :mod:`repro.ulp.deflate`."""
    lengths = []
    for symbol, extra in entries:
        if symbol < 16:
            lengths.append(symbol)
        elif symbol == 16:
            if not lengths:
                raise ValueError("repeat code with no previous length")
            lengths.extend([lengths[-1]] * (3 + extra))
        elif symbol == 17:
            lengths.extend([0] * (3 + extra))
        else:
            lengths.extend([0] * (11 + extra))
    if len(lengths) != total:
        raise ValueError("decoded %d code lengths, expected %d" % (len(lengths), total))
    return lengths
