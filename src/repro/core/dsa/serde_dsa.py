"""Deserialization DSA: the extension ULP beyond the paper's two.

The paper's discussion positions SmartDIMM as extensible to further ULP
domains; serialization is the one its introduction motivates (citing the
on-chip and SmartNIC protobuf accelerators).  This DSA performs the
wire-to-flat transform of :mod:`repro.ulp.serialization` at CompCpy page
granularity as a :class:`~repro.core.dsa.deflate_dsa.PageTransformDSA`,
the contract every non-size-preserving, sequentially-computed ULP shares:

* input: one 4 KB source page containing ``[4-byte wire length][wire]``;
* ordered processing (CompCpy must pass ``ordered=True``);
* output: ``[4-byte flat length][flat representation]`` in the destination
  page, or the overflow marker when the aligned flat form does not fit
  (software falls back to CPU parsing).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ulp.serialization import Schema, flatten
from repro.core.dsa.deflate_dsa import PageTransformDSA


@dataclass
class SerdeOffloadContext:
    """Per-page deserialization context (schema lives in the config slot)."""

    schema: Schema
    input_buffer: bytearray = field(default_factory=bytearray)
    next_line: int = 0

    CONTEXT_BYTES_PER_PAGE = 2048  # schema table + working registers


class SerdeDSA(PageTransformDSA):
    """Streaming page-granular wire-format parser."""

    ulp = "serde"

    def transform(self, context: SerdeOffloadContext, budget: int):
        """Parse the framed wire bytes into the flat representation, or
        decline on malformed input (the CPU path then reports the precise
        parse error to the application)."""
        wire = self.framed_source(context)
        if wire is None:
            return None
        try:
            return flatten(wire, context.schema)
        except ValueError:
            return None
