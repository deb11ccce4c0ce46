"""DEFLATE bit-order readers/writers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ulp.bitstream import BitReader, BitWriter


def test_lsb_first_packing():
    writer = BitWriter()
    writer.write_bits(0b1, 1)
    writer.write_bits(0b01, 2)
    writer.write_bits(0b10110, 5)
    # bits fill from LSB: 1 | 01<<1 | 10110<<3
    assert writer.getvalue() == bytes([0b10110011])


def test_partial_byte_flushes_with_zero_padding():
    writer = BitWriter()
    writer.write_bits(0b11, 2)
    assert writer.getvalue() == bytes([0b11])


def test_huffman_codes_written_msb_first():
    writer = BitWriter()
    writer.write_huffman_code(0b110, 3)  # reversed on the wire -> 011
    assert writer.getvalue() == bytes([0b011])


def test_align_and_write_bytes():
    writer = BitWriter()
    writer.write_bits(1, 1)
    writer.align_to_byte()
    writer.write_bytes(b"\xab\xcd")
    assert writer.getvalue() == bytes([1, 0xAB, 0xCD])


def test_write_bytes_requires_alignment():
    writer = BitWriter()
    writer.write_bits(1, 1)
    with pytest.raises(ValueError):
        writer.write_bytes(b"x")


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        BitWriter().write_bits(0, -1)
    reader = BitReader(b"\xa5")
    with pytest.raises(ValueError):
        reader.read_bits(-3)
    assert reader.read_bits(8) == 0xA5


def test_reader_round_trip_mixed():
    writer = BitWriter()
    writer.write_bits(0b101, 3)
    writer.write_bits(0xBEEF, 16)
    writer.align_to_byte()
    writer.write_bytes(b"xyz")
    reader = BitReader(writer.getvalue())
    assert reader.read_bits(3) == 0b101
    assert reader.read_bits(16) == 0xBEEF
    reader.align_to_byte()
    assert reader.read_bytes(3) == b"xyz"


def test_reader_eof():
    reader = BitReader(b"\x01")
    reader.read_bits(8)
    with pytest.raises(EOFError):
        reader.read_bit()


def test_read_bytes_requires_alignment():
    reader = BitReader(b"\x01\x02")
    reader.read_bit()
    with pytest.raises(ValueError):
        reader.read_bytes(1)


def test_bits_remaining():
    reader = BitReader(b"\xff\xff")
    assert reader.bits_remaining == 16
    reader.read_bits(5)
    assert reader.bits_remaining == 11


def test_bit_length_tracks_writes():
    writer = BitWriter()
    writer.write_bits(0, 13)
    assert writer.bit_length == 13


@settings(max_examples=40, deadline=None)
@given(chunks=st.lists(st.tuples(st.integers(0, 2**16 - 1), st.integers(1, 16)), max_size=30))
def test_round_trip_property(chunks):
    writer = BitWriter()
    for value, count in chunks:
        writer.write_bits(value, count)
    reader = BitReader(writer.getvalue())
    for value, count in chunks:
        assert reader.read_bits(count) == value & ((1 << count) - 1)
