"""Huffman construction: canonical codes, package-merge, code-length RLE."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ulp.huffman import (
    DISTANCE_BASE,
    END_OF_BLOCK,
    LENGTH_BASE,
    HuffmanDecoder,
    HuffmanEncoder,
    canonical_codes,
    decode_code_lengths,
    distance_to_symbol,
    encode_code_lengths,
    fixed_distance_lengths,
    fixed_literal_lengths,
    length_to_symbol,
    package_merge_lengths,
    validate_kraft,
)
from repro.ulp.bitstream import BitReader, BitWriter


def test_canonical_codes_rfc1951_example():
    # RFC 1951 Sec. 3.2.2 example: lengths (3,3,3,3,3,2,4,4) -> specific codes.
    lengths = dict(zip("ABCDEFGH", [3, 3, 3, 3, 3, 2, 4, 4]))
    codes = canonical_codes(lengths)
    assert codes["F"] == 0b00
    assert codes["A"] == 0b010
    assert codes["E"] == 0b110
    assert codes["G"] == 0b1110
    assert codes["H"] == 0b1111


def test_fixed_literal_code_lengths():
    lengths = fixed_literal_lengths()
    assert lengths[0] == 8
    assert lengths[143] == 8
    assert lengths[144] == 9
    assert lengths[255] == 9
    assert lengths[256] == 7
    assert lengths[279] == 7
    assert lengths[287] == 8
    assert validate_kraft(lengths)


def test_fixed_distance_code_lengths():
    lengths = fixed_distance_lengths()
    assert all(length == 5 for length in lengths.values())
    assert len(lengths) == 30


def test_length_symbol_boundaries():
    assert length_to_symbol(3) == (257, 0, 0)
    assert length_to_symbol(10) == (264, 0, 0)
    assert length_to_symbol(11) == (265, 0, 1)
    assert length_to_symbol(258) == (285, 0, 0)
    for length in (2, 259, 1000):
        with pytest.raises(ValueError):
            length_to_symbol(length)


def test_distance_symbol_boundaries():
    assert distance_to_symbol(1) == (0, 0, 0)
    assert distance_to_symbol(4) == (3, 0, 0)
    assert distance_to_symbol(5) == (4, 0, 1)
    assert distance_to_symbol(32768) == (29, 8191, 13)
    for distance in (0, 32769, 40000):
        with pytest.raises(ValueError):
            distance_to_symbol(distance)


def test_symbol_tables_invert():
    """Every length/distance reconstructs from (base + extra), with the
    extra value fitting its bit count."""
    for length in range(3, 259):
        symbol, extra, bits = length_to_symbol(length)
        assert LENGTH_BASE[symbol - 257] + extra == length
        assert 0 <= extra < 1 << bits
    for distance in range(1, 32769):
        symbol, extra, bits = distance_to_symbol(distance)
        assert DISTANCE_BASE[symbol] + extra == distance
        assert 0 <= extra < 1 << bits


def test_package_merge_single_symbol():
    assert package_merge_lengths({42: 100}) == {42: 1}


def test_package_merge_two_symbols():
    assert package_merge_lengths({0: 1, 1: 100}) == {0: 1, 1: 1}


def test_package_merge_skewed_frequencies():
    lengths = package_merge_lengths({0: 1, 1: 1, 2: 2, 3: 4, 4: 8})
    # Rarest symbols get the longest codes.
    assert lengths[0] >= lengths[3] >= lengths[4]
    assert validate_kraft(lengths)


def test_package_merge_respects_limit():
    # 1000 symbols with wildly skewed frequencies must stay <= 15 bits.
    frequencies = {i: 2**min(i, 20) for i in range(1000)}
    lengths = package_merge_lengths(frequencies)
    assert max(lengths.values()) <= 15
    assert validate_kraft(lengths)


def test_package_merge_limit_7_for_code_length_alphabet():
    frequencies = {i: i + 1 for i in range(19)}
    lengths = package_merge_lengths(frequencies, limit=7)
    assert max(lengths.values()) <= 7
    assert validate_kraft(lengths)


def test_package_merge_too_many_symbols_rejected():
    with pytest.raises(ValueError):
        package_merge_lengths({i: 1 for i in range(9)}, limit=3)


@settings(max_examples=30, deadline=None)
@given(
    frequencies=st.dictionaries(
        st.integers(0, 285), st.integers(1, 10_000), min_size=2, max_size=60
    )
)
def test_package_merge_kraft_property(frequencies):
    lengths = package_merge_lengths(frequencies)
    assert validate_kraft(lengths)
    assert set(lengths) == set(frequencies)
    assert all(1 <= L <= 15 for L in lengths.values())


@settings(max_examples=20, deadline=None)
@given(
    frequencies=st.dictionaries(
        st.integers(0, 285), st.integers(1, 1000), min_size=2, max_size=40
    )
)
def test_encoder_decoder_round_trip(frequencies):
    encoder = HuffmanEncoder.from_frequencies(frequencies)
    decoder = HuffmanDecoder(encoder.lengths)
    symbols = sorted(frequencies)
    writer = BitWriter()
    for symbol in symbols:
        code, length = encoder.encode(symbol)
        writer.write_huffman_code(code, length)
    reader = BitReader(writer.getvalue())
    assert [decoder.decode(reader) for _ in symbols] == symbols


def test_encoder_rejects_kraft_violation():
    with pytest.raises(ValueError):
        HuffmanEncoder({0: 1, 1: 1, 2: 1})  # three 1-bit codes


def test_decoder_rejects_invalid_code():
    decoder = HuffmanDecoder({0: 1, 1: 2})  # code space not full at len 2
    writer = BitWriter()
    writer.write_huffman_code(0b11, 2)  # unassigned
    with pytest.raises(ValueError):
        decoder.decode(BitReader(writer.getvalue()))


def test_code_length_rle_round_trip():
    sequence = [0] * 20 + [5] * 9 + [0, 0] + [7] + [0] * 150 + [3, 3, 3]
    entries = encode_code_lengths(sequence)
    decoded = decode_code_lengths(
        [(symbol, extra) for symbol, extra, _ in entries], total=len(sequence)
    )
    assert decoded == sequence


def test_code_length_rle_uses_repeat_codes():
    entries = encode_code_lengths([0] * 138)
    assert entries == [(18, 127, 7)]
    entries = encode_code_lengths([4] * 7)
    assert entries[0] == (4, 0, 0)
    assert (16, 3, 2) in entries  # repeat-previous x6


def test_decode_code_lengths_validates_total():
    with pytest.raises(ValueError):
        decode_code_lengths([(0, 0)], total=5)
    with pytest.raises(ValueError):
        decode_code_lengths([(16, 0)], total=3)  # repeat with no previous


def test_end_of_block_symbol_constant():
    assert END_OF_BLOCK == 256
