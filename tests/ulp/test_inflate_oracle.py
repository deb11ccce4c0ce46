"""The table-driven inflater against the bit-serial one it replaced.

:func:`serial_inflate` below, with :class:`SerialBitReader` and
:class:`SerialHuffmanDecoder`, is the decoder's oracle: the bit-at-a-time
reader, the ``(length, code)`` dict probed after every bit, and
``deflate_decompress`` with its block readers, as they stood before the
lookup-table kernels.  Every stream must decode to the same bytes, or fail
with the same exception class and message, because callers act on which
corrupt streams raise: ``InflateDSA`` turns ``ValueError``/``EOFError``
into a hardware fallback and the RAS sweep counts any exception as a
caught corruption.
"""

import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dsa.deflate_dsa import HardwareMatcher
from repro.ulp.bitstream import BitReader, BitWriter
from repro.ulp.deflate import deflate_compress, deflate_decompress, write_fixed_block
from repro.ulp.huffman import (
    CODE_LENGTH_ORDER,
    DISTANCE_BASE,
    DISTANCE_EXTRA,
    END_OF_BLOCK,
    LENGTH_BASE,
    LENGTH_EXTRA,
    HuffmanDecoder,
    canonical_codes,
    fixed_distance_lengths,
    fixed_literal_lengths,
)
from repro.workloads.corpus import CorpusKind, generate_corpus

MAX_OUTPUTS = (1 << 30, 4096, 100)


class SerialBitReader:
    """Oracle: reads one bit per loop iteration."""

    def __init__(self, data):
        self._data = data
        self._position = 0

    def read_bits(self, count):
        value = 0
        for i in range(count):
            byte_index, bit_index = divmod(self._position, 8)
            if byte_index >= len(self._data):
                raise EOFError("bit stream exhausted")
            bit = (self._data[byte_index] >> bit_index) & 1
            value |= bit << i
            self._position += 1
        return value

    def read_bit(self):
        return self.read_bits(1)

    def align_to_byte(self):
        self._position = (self._position + 7) // 8 * 8

    def read_bytes(self, count):
        if self._position % 8:
            raise ValueError("read_bytes requires byte alignment")
        start = self._position // 8
        if start + count > len(self._data):
            raise EOFError("bit stream exhausted")
        self._position += 8 * count
        return self._data[start : start + count]


class SerialHuffmanDecoder:
    """Oracle: walks the code one bit at a time, probing a dict per bit."""

    def __init__(self, lengths):
        codes = canonical_codes(lengths)
        self._table = {(lengths[symbol], code): symbol for symbol, code in codes.items()}
        self._max_length = max((L for L in lengths.values() if L), default=0)

    def decode(self, reader):
        code = 0
        for length in range(1, self._max_length + 1):
            code = (code << 1) | reader.read_bit()
            symbol = self._table.get((length, code))
            if symbol is not None:
                return symbol
        raise ValueError("invalid Huffman code in stream")


def serial_inflate(data, max_output=1 << 30):
    """Oracle for :func:`repro.ulp.deflate.deflate_decompress`."""
    reader = SerialBitReader(data)
    out = bytearray()
    while True:
        final = reader.read_bit()
        block_type = reader.read_bits(2)
        if block_type == 0:
            reader.align_to_byte()
            length = reader.read_bits(16)
            nlength = reader.read_bits(16)
            if length != (nlength ^ 0xFFFF):
                raise ValueError("stored block length check failed")
            out.extend(reader.read_bytes(length))
        elif block_type in (1, 2):
            if block_type == 1:
                literal_decoder = SerialHuffmanDecoder(fixed_literal_lengths())
                distance_decoder = SerialHuffmanDecoder(fixed_distance_lengths())
            else:
                literal_decoder, distance_decoder = _serial_dynamic_header(reader)
            _serial_inflate_block(reader, out, literal_decoder, distance_decoder, max_output)
        else:
            raise ValueError("reserved block type 3")
        if len(out) > max_output:
            raise ValueError("output exceeds max_output")
        if final:
            break
    return bytes(out)


def _serial_dynamic_header(reader):
    hlit = reader.read_bits(5)
    hdist = reader.read_bits(5)
    hclen = reader.read_bits(4) + 4
    cl_lengths = {}
    for symbol in CODE_LENGTH_ORDER[:hclen]:
        length = reader.read_bits(3)
        if length:
            cl_lengths[symbol] = length
    cl_decoder = SerialHuffmanDecoder(cl_lengths)
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
    return SerialHuffmanDecoder(literal_lengths), SerialHuffmanDecoder(distance_lengths)


def _serial_inflate_block(reader, out, literal_decoder, distance_decoder, max_output):
    while True:
        symbol = literal_decoder.decode(reader)
        if symbol == END_OF_BLOCK:
            return
        if symbol < 256:
            out.append(symbol)
        else:
            index = symbol - 257
            if index >= len(LENGTH_BASE):
                raise ValueError("invalid length symbol %d" % symbol)
            length = LENGTH_BASE[index] + reader.read_bits(LENGTH_EXTRA[index])
            dsym = distance_decoder.decode(reader)
            if dsym >= len(DISTANCE_BASE):
                raise ValueError("invalid distance symbol %d" % dsym)
            distance = DISTANCE_BASE[dsym] + reader.read_bits(DISTANCE_EXTRA[dsym])
            if distance > len(out):
                raise ValueError("distance reaches before stream start")
            start = len(out) - distance
            for i in range(length):
                out.append(out[start + i])
        if len(out) > max_output:
            raise ValueError("output exceeds max_output")


def _outcome(fn, *args):
    """The result bytes, or the exception's class and message."""
    try:
        return fn(*args)
    except Exception as error:  # the class and message are what is compared
        return type(error), str(error)


# -- stream sources ------------------------------------------------------------------


def _dsa_stream(data):
    writer = BitWriter()
    write_fixed_block(writer, HardwareMatcher().tokenize(data), final=True)
    return writer.getvalue()


def _zlib_stream(level):
    def compress(data):
        compressor = zlib.compressobj(level, zlib.DEFLATED, -15)
        return compressor.compress(data) + compressor.flush()

    return compress


COMPRESSORS = {
    "dsa": _dsa_stream,
    "ours-1": lambda data: deflate_compress(data, level=1),
    "ours-6": lambda data: deflate_compress(data, level=6),
    "zlib-1": _zlib_stream(1),
    "zlib-6": _zlib_stream(6),
    "zlib-9": _zlib_stream(9),
}


@st.composite
def _dynamic_headers(draw):
    """A dynamic block whose literal/length and distance code lengths are
    drawn freely (so often over-subscribed or incomplete), followed by
    random data bits.  The code-length code is either complete (all 19
    symbols at 5 bits, so every drawn length is written as drawn) or drawn
    freely too."""
    hlit = draw(st.integers(0, 29))
    hdist = draw(st.integers(0, 29))
    writer = BitWriter()
    writer.write_bits(draw(st.integers(0, 1)), 1)
    writer.write_bits(2, 2)
    writer.write_bits(hlit, 5)
    writer.write_bits(hdist, 5)
    writer.write_bits(15, 4)  # all 19 code-length code lengths follow
    if draw(st.booleans()):
        for _ in CODE_LENGTH_ORDER:
            writer.write_bits(5, 3)
        lengths = draw(st.lists(st.integers(0, 15), min_size=258 + hlit + hdist,
                                max_size=258 + hlit + hdist))
        for length in lengths:
            writer.write_huffman_code(length, 5)  # canonical code of symbol s is s
    else:
        for length in draw(st.lists(st.integers(0, 7), min_size=19, max_size=19)):
            writer.write_bits(length, 3)
    writer.align_to_byte()
    writer.write_bytes(draw(st.binary(max_size=400)))
    return writer.getvalue()


# -- properties ----------------------------------------------------------------------


def _assert_same_as_oracle(stream):
    for max_output in MAX_OUTPUTS:
        expected = _outcome(serial_inflate, stream, max_output)
        assert _outcome(deflate_decompress, stream, max_output) == expected, max_output


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(list(CorpusKind)),
    size=st.integers(0, 2048),
    seed=st.integers(0, 1 << 16),
    compressor=st.sampled_from(sorted(COMPRESSORS)),
    mutation=st.sampled_from(["clean", "flip", "truncate"]),
    offsets=st.lists(st.integers(0, 1 << 20), min_size=1, max_size=3),
)
def test_compressed_streams_decode_as_the_oracle(kind, size, seed, compressor, mutation,
                                                 offsets):
    """Each source's stream as it is, with 1-3 bit flips, or truncated."""
    stream = COMPRESSORS[compressor](generate_corpus(kind, size, seed))
    if mutation == "truncate":
        stream = stream[: offsets[0] % len(stream)]
    elif mutation == "flip":
        flipped = bytearray(stream)
        for bit in offsets:
            bit %= 8 * len(stream)
            flipped[bit >> 3] ^= 1 << (bit & 7)
        stream = bytes(flipped)
    _assert_same_as_oracle(stream)


@settings(max_examples=60, deadline=None)
@given(stream=_dynamic_headers())
def test_freely_drawn_dynamic_headers_decode_as_the_oracle(stream):
    _assert_same_as_oracle(stream)


@settings(max_examples=60, deadline=None)
@given(stream=st.binary(max_size=300))
def test_random_bytes_decode_as_the_oracle(stream):
    _assert_same_as_oracle(stream)


@settings(max_examples=150, deadline=None)
@given(
    lengths=st.dictionaries(st.integers(0, 287), st.integers(0, 15), max_size=40),
    data=st.binary(max_size=24),
)
def test_decoder_matches_bit_serial_walk(lengths, data):
    """Over-subscribed, incomplete and empty code sets: the same symbols,
    then the same exception, as the bit-serial walk."""
    decoder, oracle = HuffmanDecoder(lengths), SerialHuffmanDecoder(lengths)
    reader, serial_reader = BitReader(data), SerialBitReader(data)
    for _ in range(8 * len(data) + 1):
        expected = _outcome(oracle.decode, serial_reader)
        assert _outcome(decoder.decode, reader) == expected
        if isinstance(expected, tuple):
            break


@settings(max_examples=150, deadline=None)
@given(lengths=st.dictionaries(st.integers(0, 287), st.integers(1, 15), max_size=40))
def test_fitting_canonical_codes_are_prefix_free(lengths):
    """Why the decoder's table needs no rule for clashing codes: even for
    an over-subscribed set, no code that fits its length is a prefix of
    another."""
    codes = canonical_codes(lengths)
    fitting = [(lengths[s], code) for s, code in codes.items() if not code >> lengths[s]]
    for short, prefix in fitting:
        for long, code in fitting:
            assert long <= short or code >> (long - short) != prefix


@settings(max_examples=100, deadline=None)
@given(data=st.binary(max_size=12), counts=st.lists(st.integers(0, 40), max_size=12))
def test_read_bits_matches_bit_serial_reader(data, counts):
    reader, serial_reader = BitReader(data), SerialBitReader(data)
    for count in counts:
        expected = _outcome(serial_reader.read_bits, count)
        assert _outcome(reader.read_bits, count) == expected
        if isinstance(expected, tuple):
            break
