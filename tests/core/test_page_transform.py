"""The page-transform contract the deflate, inflate and serde DSAs share.

Each runs as a :class:`~repro.core.dsa.deflate_dsa.PageTransformDSA`:
source lines must arrive in order, and the result lands framed as
``[4-byte length][payload]`` across the destination pages, or as the
overflow marker when the transform declines or overruns the budget.
"""

import os

import pytest

from repro.core.dsa.base import Offload, ScratchpadWriter, UlpKind
from repro.core.dsa.deflate_dsa import (
    OVERFLOW_MARKER,
    DeflateDSA,
    DeflateOffloadContext,
    InflateDSA,
    InflateOffloadContext,
    OutOfOrderLineError,
    frame_page,
    parse_compressed_page,
)
from repro.core.dsa.serde_dsa import SerdeDSA, SerdeOffloadContext
from repro.core.scratchpad import LineState, Scratchpad
from repro.dram.commands import CACHELINE_SIZE, LINES_PER_PAGE, PAGE_SIZE
from repro.ulp.deflate import deflate_compress, deflate_decompress
from repro.ulp.serialization import FieldKind, FieldSpec, Schema, flatten, serialize
from repro.workloads.corpus import CorpusKind, generate_corpus

SCHEMA = Schema({1: FieldSpec("user", FieldKind.UINT),
                 2: FieldSpec("payload", FieldKind.BYTES)})
TEXT = generate_corpus(CorpusKind.TEXT, PAGE_SIZE)
WIRE = serialize({"user": 7, "payload": b"abc" * 300}, SCHEMA)


class Ulp:
    """One page-transform DSA with its context and sample sources."""

    def __init__(self, name, kind, dsa, context, pages, good, decode,
                 overflowing):
        self.name = name
        self.kind = kind
        self.dsa = dsa
        self.context = context          # source -> fresh context
        self.pages = pages              # destination pages per offload
        self.good = good                # (source, expected payload)
        self.decode = decode            # payload -> comparable output
        self.overflowing = overflowing  # sources that must overflow


ULPS = [
    Ulp("deflate", UlpKind.DEFLATE, DeflateDSA,
        lambda source: DeflateOffloadContext(input_length=len(source)), 1,
        good=(TEXT, TEXT), decode=deflate_decompress,
        # Incompressible input: the stream outgrows the page budget.
        overflowing=[os.urandom(PAGE_SIZE)]),
    Ulp("inflate", UlpKind.INFLATE, InflateDSA,
        lambda source: InflateOffloadContext(), 2,
        # A full page of output spans both destination pages with its prefix.
        good=(frame_page(deflate_compress(TEXT)), TEXT), decode=bytes,
        overflowing=[
            frame_page(b"\x07not deflate at all"),             # declined
            frame_page(deflate_compress(b"\x00" * 60000)),     # over budget
            (PAGE_SIZE).to_bytes(4, "little"),                 # corrupt frame
        ]),
    Ulp("serde", UlpKind.DESERIALIZE, SerdeDSA,
        lambda source: SerdeOffloadContext(schema=SCHEMA), 1,
        good=(frame_page(WIRE), flatten(WIRE, SCHEMA)), decode=bytes,
        overflowing=[
            frame_page(b"\x80"),                                        # declined
            frame_page(serialize({"user": 1}, SCHEMA) * 600),           # over budget
        ]),
]


def _offload(ulp, source):
    pad = Scratchpad(total_pages=4)
    offload = Offload(
        offload_id=1,
        kind=ulp.kind,
        context=ulp.context(source),
        sbuf_pages=list(range(ulp.pages)),
        dbuf_pages=list(range(100, 100 + ulp.pages)),
    )
    offload.scratchpad_indices = [pad.allocate(page) for page in offload.dbuf_pages]
    return offload, ScratchpadWriter(pad, offload), pad


def _run(ulp, source):
    """Feed `source` in order, finalise, and return the destination image."""
    offload, writer, pad = _offload(ulp, source)
    dsa = ulp.dsa()
    padded = source + bytes(ulp.pages * PAGE_SIZE - len(source))
    for line in range(ulp.pages * LINES_PER_PAGE):
        dsa.process_run(offload, writer, line,
                        padded[line * CACHELINE_SIZE : (line + 1) * CACHELINE_SIZE], 1)
    dsa.finalize(offload, writer)
    pages = [pad.page(index) for index in offload.scratchpad_indices]
    assert all(state is LineState.VALID for page in pages for state in page.states)
    return b"".join(bytes(page.data) for page in pages)


@pytest.mark.parametrize("ulp", ULPS, ids=lambda ulp: ulp.name)
def test_out_of_order_line_names_the_ulp(ulp):
    """A run past the next expected line raises, naming the ULP, before
    it consumes any of its lines."""
    offload, writer, _ = _offload(ulp, ulp.good[0])
    dsa = ulp.dsa()
    dsa.process_run(offload, writer, 0, bytes(range(2 * CACHELINE_SIZE)), 2)
    with pytest.raises(OutOfOrderLineError, match="^%s line 3 arrived, expected 2"
                       % ulp.name):
        dsa.process_run(offload, writer, 3, b"\xff" * (4 * CACHELINE_SIZE), 4)
    context = offload.context
    assert context.next_line == 2
    assert context.input_buffer == bytes(range(2 * CACHELINE_SIZE))


@pytest.mark.parametrize("ulp", ULPS, ids=lambda ulp: ulp.name)
def test_framed_output_round_trips(ulp):
    source, expected = ulp.good
    image = _run(ulp, source)
    payload = parse_compressed_page(image)
    assert payload is not None
    assert int.from_bytes(image[:4], "little") == len(payload)
    assert ulp.decode(payload) == expected


@pytest.mark.parametrize("ulp,source", [
    pytest.param(ulp, source, id="%s-%d" % (ulp.name, i))
    for ulp in ULPS for i, source in enumerate(ulp.overflowing)])
def test_declined_or_oversized_output_writes_the_overflow_marker(ulp, source):
    image = _run(ulp, source)
    assert image[:4] == OVERFLOW_MARKER.to_bytes(4, "little")
    assert parse_compressed_page(image) is None


def test_parse_limit_follows_the_page_length():
    two_pages = (PAGE_SIZE).to_bytes(4, "little") + bytes(2 * PAGE_SIZE - 4)
    assert len(parse_compressed_page(two_pages)) == PAGE_SIZE
    with pytest.raises(ValueError, match="corrupt length prefix"):
        parse_compressed_page(two_pages[:PAGE_SIZE])
