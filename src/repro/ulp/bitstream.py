"""Bit-level readers and writers for DEFLATE (RFC 1951 bit order).

DEFLATE packs data least-significant-bit first within each byte.  Huffman
codes are packed most-significant-bit first *of the code*, which in this
convention means the code bits are reversed before writing.  The two classes
here hide that asymmetry from the LZ/Huffman layers.
"""

from __future__ import annotations


def reverse_bits(value: int, length: int) -> int:
    """The low `length` bits of `value` in reverse order (0 if `length` < 1).

    A Huffman code reversed once is the value to write LSB-first.
    """
    if length < 1:
        return 0
    return int(format(value & ((1 << length) - 1), "0%db" % length)[::-1], 2)


class BitWriter:
    """Accumulates bits LSB-first and yields the packed byte string."""

    def __init__(self):
        self._bytes = bytearray()
        self._bit_buffer = 0
        self._bit_count = 0

    def write_bits(self, value: int, count: int) -> None:
        """Write `count` bits of `value`, least significant bit first."""
        if count < 0:
            raise ValueError("negative bit count")
        bit_buffer = self._bit_buffer | (value & ((1 << count) - 1)) << self._bit_count
        bit_count = self._bit_count + count
        if bit_count >= 8:
            whole = bit_count >> 3
            self._bytes += (bit_buffer & ((1 << 8 * whole) - 1)).to_bytes(whole, "little")
            bit_buffer >>= 8 * whole
            bit_count &= 7
        self._bit_buffer = bit_buffer
        self._bit_count = bit_count

    def write_huffman_code(self, code: int, length: int) -> None:
        """Write a Huffman code (codes are bit-reversed on the wire)."""
        self.write_bits(reverse_bits(code, length), length)

    def align_to_byte(self) -> None:
        """Pad with zero bits to the next byte boundary."""
        if self._bit_count:
            self._bytes.append(self._bit_buffer & 0xFF)
            self._bit_buffer = 0
            self._bit_count = 0

    def write_bytes(self, data: bytes) -> None:
        """Write whole bytes; the stream must be byte-aligned."""
        if self._bit_count:
            raise ValueError("write_bytes requires byte alignment")
        self._bytes.extend(data)

    def getvalue(self) -> bytes:
        """Packed bytes, flushing any partial final byte."""
        out = bytearray(self._bytes)
        if self._bit_count:
            out.append(self._bit_buffer & 0xFF)
        return bytes(out)

    @property
    def bit_length(self) -> int:
        return 8 * len(self._bytes) + self._bit_count


class BitReader:
    """Reads bits LSB-first from a byte string.

    ``data``, ``position`` (the offset of the next unread bit) and ``end``
    (the stream length in bits) are public because
    :meth:`repro.ulp.huffman.HuffmanDecoder.decode` peeks and advances
    them directly, which saves a method call per symbol.
    """

    def __init__(self, data: bytes):
        self.data = data
        self.position = 0
        self.end = 8 * len(data)

    def read_bits(self, count: int) -> int:
        """Read `count` bits, least significant bit first."""
        if count < 0:
            raise ValueError("negative bit count")
        position = self.position
        stop = position + count
        if stop > self.end:
            raise EOFError("bit stream exhausted")
        self.position = stop
        covering = self.data[position >> 3 : (stop + 7) >> 3]
        return (int.from_bytes(covering, "little") >> (position & 7)) & ((1 << count) - 1)

    def read_bit(self) -> int:
        """Read a single bit."""
        return self.read_bits(1)

    def align_to_byte(self) -> None:
        """Skip to the next byte boundary."""
        self.position = (self.position + 7) // 8 * 8

    def read_bytes(self, count: int) -> bytes:
        """Read whole bytes; the stream must be byte-aligned."""
        if self.position % 8:
            raise ValueError("read_bytes requires byte alignment")
        start = self.position // 8
        if start + count > len(self.data):
            raise EOFError("bit stream exhausted")
        self.position += 8 * count
        return self.data[start : start + count]

    @property
    def bits_remaining(self) -> int:
        return self.end - self.position
