"""Datapath rows of the perf gate: the ULP kernels and whole CompCpy records.

Each function builds one timed row's inputs and returns the
zero-argument operation that ``check_regression.py`` times, in fresh
processes, against the parent commit's ``src`` and against the change's.
The rows use only APIs both sides have, so the parent's run of a row is
its "before" reading.  Record sizes are the paper's (4/16/64 KB, Fig. 11):

* ``aes_gcm_encrypt`` — full record encrypt (keystream, XOR and tag);
* ``ghash`` — authentication only, the serial dependency the paper's
  stride-4 H-power hardware attacks;
* ``deflate`` — LZ77 tokenisation with the level-6 parameters;
* ``deflate_dsa`` — the deflate DSA's kernels (``HardwareMatcher().tokenize``
  plus ``write_fixed_block``) on a 4 KB page of each corpus kind;
* ``inflate`` — ``deflate_decompress`` of those fixed-Huffman streams and
  of one 16 KB zlib level-6 (dynamic-Huffman) stream;
* ``compcpy_e2e`` — a whole TLS record through the SmartDIMM CompCpy
  pipeline, cache and DRAM micro-simulation included.

Bit-identity of these kernels with their oracles is tier-1's job
(``tests/ulp``, ``tests/core``); a row only times.
"""

from __future__ import annotations

import zlib

from repro.core.dsa.deflate_dsa import HardwareMatcher
from repro.core.offload_api import SmartDIMMSession
from repro.ulp.bitstream import BitWriter
from repro.ulp.ctx_cache import cached_aesgcm
from repro.ulp.deflate import deflate_decompress, write_fixed_block
from repro.ulp.lz77 import HashChainMatcher
from repro.workloads.corpus import CorpusKind, generate_corpus

SIZES = (4096, 16384, 65536)

KEY = bytes(range(16))
NONCE = bytes(range(12))
AAD = b"\x17\x03\x03\x40\x11"


def _corpus(size: int) -> bytes:
    """Deterministic mixed-entropy payload (compressible like the paper's
    HTML corpus, non-trivial for crypto)."""
    chunk = (
        b"<html><body>SmartDIMM offloads upper layer protocols next to "
        b"memory; records span %d bytes of response payload.</body></html>"
    )
    out = bytearray()
    index = 0
    while len(out) < size:
        out += chunk % index
        index += 1
    return bytes(out[:size])


def aes_gcm_encrypt(size: int):
    gcm, plaintext = cached_aesgcm(KEY), _corpus(size)
    return lambda: gcm.encrypt(NONCE, plaintext, AAD)


def ghash(size: int):
    gcm, data = cached_aesgcm(KEY), _corpus(size)
    return lambda: gcm.ghash(data)


def deflate(size: int):
    matcher, data = HashChainMatcher(max_chain=128, lazy=True), _corpus(size)
    return lambda: matcher.tokenize(data)


def _corpus_pages() -> list:
    """One 4 KB page of each corpus kind."""
    return [generate_corpus(kind, 4096, seed=1) for kind in CorpusKind]


def _dsa_stream(page: bytes) -> bytes:
    """The deflate DSA's fixed-Huffman stream for one page."""
    writer = BitWriter()
    write_fixed_block(writer, HardwareMatcher().tokenize(page), final=True)
    return writer.getvalue()


def deflate_dsa():
    pages = _corpus_pages()
    return lambda: [_dsa_stream(page) for page in pages]


def inflate():
    streams = [_dsa_stream(page) for page in _corpus_pages()]
    compressor = zlib.compressobj(6, zlib.DEFLATED, -15)
    html = generate_corpus(CorpusKind.HTML, 16384, seed=1)
    streams.append(compressor.compress(html) + compressor.flush())
    return lambda: [deflate_decompress(stream) for stream in streams]


def compcpy_e2e(size: int):
    session, payload = SmartDIMMSession(), _corpus(size)
    return lambda: session.tls_encrypt(KEY, NONCE, payload, AAD)
