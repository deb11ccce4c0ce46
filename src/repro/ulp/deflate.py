"""DEFLATE compression and decompression (RFC 1951), from scratch.

The compressor supports all three block types — stored, fixed-Huffman, and
dynamic-Huffman — and picks the cheapest encoding for each block.  The
decompressor handles arbitrary conforming streams (it round-trips output from
CPython's zlib in raw mode, which the test suite uses as an oracle).

The CPU baseline compresses with dynamic Huffman and a deep hash-chain
matcher; the SmartDIMM deflate DSA (:mod:`repro.core.dsa.deflate_dsa`)
restricts the matcher and uses fixed-Huffman blocks for deterministic
latency, but both paths produce valid DEFLATE decoded by
:func:`deflate_decompress`.
"""

from __future__ import annotations

from repro.ulp.bitstream import BitReader, BitWriter
from repro.ulp.huffman import (
    CODE_LENGTH_ORDER,
    DISTANCE_BASE,
    DISTANCE_EXTRA,
    END_OF_BLOCK,
    LENGTH_BASE,
    LENGTH_EXTRA,
    HuffmanDecoder,
    HuffmanEncoder,
    distance_to_symbol,
    encode_code_lengths,
    fixed_decoders,
    fixed_encoders,
    length_to_symbol,
    package_merge_lengths,
)
from repro.ulp.lz77 import HashChainMatcher, Literal, Match

BLOCK_STORED = 0
BLOCK_FIXED = 1
BLOCK_DYNAMIC = 2

# Matcher effort per compression level, loosely mirroring zlib.
_LEVEL_PARAMS = {
    1: dict(max_chain=4, lazy=False),
    2: dict(max_chain=8, lazy=False),
    3: dict(max_chain=16, lazy=False),
    4: dict(max_chain=16, lazy=True),
    5: dict(max_chain=32, lazy=True),
    6: dict(max_chain=128, lazy=True),
    7: dict(max_chain=256, lazy=True),
    8: dict(max_chain=512, lazy=True),
    9: dict(max_chain=1024, lazy=True),
}


def _symbol_stream(tokens: list) -> list:
    """Expand LZ tokens into (lit/len symbol, extras, dist symbol, extras)."""
    stream = []
    for token in tokens:
        if isinstance(token, Literal):
            stream.append((token.value, 0, 0, None, 0, 0))
        else:
            lsym, lextra, lbits = length_to_symbol(token.length)
            dsym, dextra, dbits = distance_to_symbol(token.distance)
            stream.append((lsym, lextra, lbits, dsym, dextra, dbits))
    stream.append((END_OF_BLOCK, 0, 0, None, 0, 0))
    return stream


def _write_symbols(writer: BitWriter, stream: list, literal_encoder: HuffmanEncoder,
                   distance_encoder: HuffmanEncoder) -> None:
    """One write per symbol tuple: the literal/length code, its extra bits,
    the distance code and its extra bits, packed LSB-first."""
    literal_codes = literal_encoder.wire
    distance_codes = distance_encoder.wire
    write_bits = writer.write_bits
    for lsym, lextra, lbits, dsym, dextra, dbits in stream:
        value, count = literal_codes[lsym]
        if dsym is None:
            write_bits(value, count)
            continue
        value |= lextra << count
        count += lbits
        code, length = distance_codes[dsym]
        write_bits(value | (code | dextra << length) << count, count + length + dbits)


def _dynamic_block_cost(stream: list, literal_lengths: dict, distance_lengths: dict,
                        header_bits: int) -> int:
    bits = header_bits
    for lsym, _, lbits, dsym, _, dbits in stream:
        bits += literal_lengths[lsym] + lbits
        if dsym is not None:
            bits += distance_lengths[dsym] + dbits
    return bits


def _fixed_block_cost(stream: list) -> int:
    literal_encoder, distance_encoder = fixed_encoders()
    literal_lengths = literal_encoder.lengths
    distance_lengths = distance_encoder.lengths
    bits = 3
    for lsym, _, lbits, dsym, _, dbits in stream:
        bits += literal_lengths[lsym] + lbits
        if dsym is not None:
            bits += distance_lengths[dsym] + dbits
    return bits


def _build_dynamic_header(literal_lengths: dict, distance_lengths: dict) -> tuple:
    """Build the dynamic block header fields; returns
    (hlit, hdist, hclen, cl_encoder, cl_entries, header_bits)."""
    max_lit = max([s for s, L in literal_lengths.items() if L] + [END_OF_BLOCK])
    max_dist = max([s for s, L in distance_lengths.items() if L] + [0])
    hlit = max_lit + 1 - 257 if max_lit >= 257 else 0
    hdist = max_dist + 1 - 1
    lit_seq = [literal_lengths.get(s, 0) for s in range(257 + hlit)]
    dist_seq = [distance_lengths.get(s, 0) for s in range(hdist + 1)]
    cl_entries = encode_code_lengths(lit_seq + dist_seq)
    cl_freq = {}
    for symbol, _, _ in cl_entries:
        cl_freq[symbol] = cl_freq.get(symbol, 0) + 1
    cl_lengths = package_merge_lengths(cl_freq, limit=7)
    cl_encoder = HuffmanEncoder(cl_lengths)
    hclen = 4
    for index, symbol in enumerate(CODE_LENGTH_ORDER):
        if cl_lengths.get(symbol, 0):
            hclen = max(hclen, index + 1)
    header_bits = 3 + 5 + 5 + 4 + 3 * hclen
    for symbol, _, extra_bits in cl_entries:
        header_bits += cl_lengths.get(symbol, 0) + extra_bits
    return hlit, hdist, hclen, cl_encoder, cl_entries, header_bits


def deflate_compress(data: bytes, level: int = 6, window_size: int = 32768) -> bytes:
    """Compress `data` into a raw DEFLATE stream (single final block)."""
    if not 1 <= level <= 9:
        raise ValueError("compression level must be 1..9")
    writer = BitWriter()
    if not data:
        # Empty final fixed block: just the end-of-block symbol.
        writer.write_bits(1, 1)
        writer.write_bits(BLOCK_FIXED, 2)
        writer.write_bits(*fixed_encoders()[0].wire[END_OF_BLOCK])
        return writer.getvalue()

    matcher = HashChainMatcher(window_size=window_size, **_LEVEL_PARAMS[level])
    tokens = matcher.tokenize(data)
    stream = _symbol_stream(tokens)

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
    fixed_bits = _fixed_block_cost(stream)
    stored_bits = 8 * (5 * ((len(data) + 65534) // 65535) + len(data)) + 3 + 7

    best = min(dynamic_bits, fixed_bits, stored_bits)
    if best == stored_bits:
        _write_stored_blocks(writer, data)
    elif best == fixed_bits:
        writer.write_bits(1, 1)
        writer.write_bits(BLOCK_FIXED, 2)
        _write_symbols(writer, stream, *fixed_encoders())
    else:
        writer.write_bits(1, 1)
        writer.write_bits(BLOCK_DYNAMIC, 2)
        writer.write_bits(hlit, 5)
        writer.write_bits(hdist, 5)
        writer.write_bits(hclen - 4, 4)
        for symbol in CODE_LENGTH_ORDER[:hclen]:
            writer.write_bits(cl_encoder.lengths.get(symbol, 0), 3)
        for symbol, extra_value, extra_bits in cl_entries:
            code, length = cl_encoder.wire[symbol]
            writer.write_bits(code | extra_value << length, length + extra_bits)
        _write_symbols(
            writer,
            stream,
            HuffmanEncoder(literal_lengths),
            HuffmanEncoder(distance_lengths),
        )
    return writer.getvalue()


def _write_stored_blocks(writer: BitWriter, data: bytes) -> None:
    offset = 0
    while True:
        chunk = data[offset : offset + 65535]
        offset += len(chunk)
        final = offset >= len(data)
        writer.write_bits(1 if final else 0, 1)
        writer.write_bits(BLOCK_STORED, 2)
        writer.align_to_byte()
        writer.write_bits(len(chunk), 16)
        writer.write_bits(len(chunk) ^ 0xFFFF, 16)
        writer.write_bytes(chunk)
        if final:
            break


def write_fixed_block(writer: BitWriter, tokens: list, final: bool = True) -> None:
    """Emit one fixed-Huffman block from pre-tokenized LZ symbols.

    Used by the deflate DSA, whose hardware pipeline always selects the fixed
    code for deterministic latency (Sec. V-B).
    """
    writer.write_bits(1 if final else 0, 1)
    writer.write_bits(BLOCK_FIXED, 2)
    _write_symbols(writer, _symbol_stream(tokens), *fixed_encoders())


def deflate_decompress(data: bytes, max_output: int = 1 << 30) -> bytes:
    """Decompress a raw DEFLATE stream."""
    reader = BitReader(data)
    out = bytearray()
    while True:
        final = reader.read_bits(1)
        block_type = reader.read_bits(2)
        if block_type == BLOCK_STORED:
            reader.align_to_byte()
            length = reader.read_bits(16)
            nlength = reader.read_bits(16)
            if length != (nlength ^ 0xFFFF):
                raise ValueError("stored block length check failed")
            out.extend(reader.read_bytes(length))
        elif block_type in (BLOCK_FIXED, BLOCK_DYNAMIC):
            if block_type == BLOCK_FIXED:
                literal_decoder, distance_decoder = fixed_decoders()
            else:
                literal_decoder, distance_decoder = _read_dynamic_header(reader)
            _inflate_block(reader, out, literal_decoder, distance_decoder, max_output)
        else:
            raise ValueError("reserved block type 3")
        if len(out) > max_output:
            raise ValueError("output exceeds max_output")
        if final:
            break
    return bytes(out)


def _read_dynamic_header(reader: BitReader) -> tuple:
    hlit = reader.read_bits(5)
    hdist = reader.read_bits(5)
    hclen = reader.read_bits(4) + 4
    cl_lengths = {}
    for symbol in CODE_LENGTH_ORDER[:hclen]:
        length = reader.read_bits(3)
        if length:
            cl_lengths[symbol] = length
    cl_decoder = HuffmanDecoder(cl_lengths)
    total = 257 + hlit + 1 + hdist
    lengths = []
    while len(lengths) < total:
        symbol = cl_decoder.decode(reader)
        if symbol < 16:
            lengths.append(symbol)
        elif symbol == 16:
            if not lengths:
                raise ValueError("repeat with no previous code length")
            lengths.extend([lengths[-1]] * (3 + reader.read_bits(2)))
        elif symbol == 17:
            lengths.extend([0] * (3 + reader.read_bits(3)))
        else:
            lengths.extend([0] * (11 + reader.read_bits(7)))
    if len(lengths) != total:
        raise ValueError("code length overrun")
    literal_lengths = {s: L for s, L in enumerate(lengths[: 257 + hlit]) if L}
    distance_lengths = {s: L for s, L in enumerate(lengths[257 + hlit :]) if L}
    if not distance_lengths:
        distance_lengths = {0: 1}
    return HuffmanDecoder(literal_lengths), HuffmanDecoder(distance_lengths)


def _inflate_block(reader, out, literal_decoder, distance_decoder, max_output) -> None:
    decode_literal = literal_decoder.decode
    decode_distance = distance_decoder.decode
    read_bits = reader.read_bits
    while True:
        symbol = decode_literal(reader)
        if symbol < END_OF_BLOCK:
            out.append(symbol)
        elif symbol == END_OF_BLOCK:
            return
        else:
            index = symbol - 257
            if index >= len(LENGTH_BASE):
                raise ValueError("invalid length symbol %d" % symbol)
            length = LENGTH_BASE[index] + read_bits(LENGTH_EXTRA[index])
            dsym = decode_distance(reader)
            if dsym >= len(DISTANCE_BASE):
                raise ValueError("invalid distance symbol %d" % dsym)
            distance = DISTANCE_BASE[dsym] + read_bits(DISTANCE_EXTRA[dsym])
            if distance > len(out):
                raise ValueError("distance reaches before stream start")
            start = len(out) - distance
            if length <= distance:
                out += out[start : start + length]
            else:
                # An overlapping copy repeats the last `distance` bytes.
                repeats, rest = divmod(length, distance)
                chunk = out[start:]
                out += chunk * repeats + chunk[:rest]
        if len(out) > max_output:
            raise ValueError("output exceeds max_output")


def adler32(data: bytes, value: int = 1) -> int:
    """Adler-32 checksum (RFC 1950) for the zlib framing helpers."""
    s1 = value & 0xFFFF
    s2 = (value >> 16) & 0xFFFF
    for byte in data:
        s1 = (s1 + byte) % 65521
        s2 = (s2 + s1) % 65521
    return (s2 << 16) | s1


def zlib_frame(raw_deflate: bytes, original: bytes) -> bytes:
    """Wrap a raw DEFLATE stream in zlib (RFC 1950) framing."""
    header = bytes([0x78, 0x9C])  # 32 KB window, default compression
    return header + raw_deflate + adler32(original).to_bytes(4, "big")


def zlib_unframe(framed: bytes) -> bytes:
    """Strip zlib framing, verify the checksum, return the decompressed data."""
    if len(framed) < 6:
        raise ValueError("zlib stream too short")
    cmf, flg = framed[0], framed[1]
    if cmf & 0x0F != 8:
        raise ValueError("unsupported compression method")
    if (cmf * 256 + flg) % 31:
        raise ValueError("zlib header check failed")
    data = deflate_decompress(framed[2:-4])
    if adler32(data) != int.from_bytes(framed[-4:], "big"):
        raise ValueError("adler32 mismatch")
    return data
