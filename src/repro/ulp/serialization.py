"""A protobuf-flavoured serialization ULP, from scratch.

The paper's introduction lists serialization among the datacenter-tax ULPs
("facilitating communication in heterogeneous software deployments via
serialization") and cites the on-chip/SmartNIC accelerators built for it;
SmartDIMM's discussion positions the architecture as extensible to further
ULP domains.  This module supplies the functional ground truth for that
extension:

* **Wire format** — tag-length-value with LEB128 varints and zigzag-encoded
  signed integers, structurally equivalent to protobuf's scalar subset:
  each field is ``(field_number << 3) | wire_kind`` followed by a varint or
  a length-delimited payload.
* **Flat format** — what a deserialization accelerator produces: fixed,
  8-byte-aligned ``(field, kind, length, payload)`` entries the CPU can
  consume with aligned loads and no varint decoding.  This mirrors the
  accelerator literature's "wire to in-memory representation" transform.

Deserialization consumes the wire stream byte-sequentially, so it is
incrementally computable in the paper's sense (Observation 4) the same way
deflate is: ordered, stateful, non-size-preserving.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class FieldKind(enum.Enum):
    """Wire encodings: varint, zigzag varint, or length-delimited."""

    UINT = 0  # varint
    SINT = 1  # zigzag varint
    BYTES = 2  # length-delimited
    STRING = 3  # length-delimited UTF-8


@dataclass(frozen=True)
class FieldSpec:
    name: str
    kind: FieldKind


class Schema:
    """Field-number -> spec mapping (the message type definition)."""

    MAX_FIELD_NUMBER = (1 << 13) - 1

    def __init__(self, fields: dict):
        for number, spec in fields.items():
            if not 1 <= number <= self.MAX_FIELD_NUMBER:
                raise ValueError("field number %d out of range" % number)
            if not isinstance(spec, FieldSpec):
                raise TypeError("schema values must be FieldSpec")
        names = [spec.name for spec in fields.values()]
        if len(names) != len(set(names)):
            raise ValueError("duplicate field names in schema")
        self.fields = dict(fields)

    def spec(self, number: int) -> FieldSpec:
        """Field spec for a field number."""
        return self.fields[number]


# -- varints ---------------------------------------------------------------------


def write_varint(value: int) -> bytes:
    """LEB128: 7 bits per byte, MSB marks continuation."""
    if value < 0:
        raise ValueError("varints are unsigned; zigzag-encode signed values")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def read_varint(data: bytes, offset: int) -> tuple:
    """Returns (value, next_offset); raises on truncation or overlength."""
    value = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise ValueError("truncated varint")
        if shift > 63:
            raise ValueError("varint exceeds 64 bits")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7


def zigzag_encode(value: int) -> int:
    """Map signed to unsigned so small magnitudes stay small."""
    return (value << 1) ^ (value >> 63) if value >= 0 else ((-value) << 1) - 1


def zigzag_decode(value: int) -> int:
    """Inverse of :func:`zigzag_encode`."""
    return (value >> 1) ^ -(value & 1)


# -- wire format ---------------------------------------------------------------------

_LENGTH_DELIMITED = (FieldKind.BYTES, FieldKind.STRING)


def serialize(record: dict, schema: Schema) -> bytes:
    """Encode a {name: value} record to wire bytes (fields in number order)."""
    out = bytearray()
    for number in sorted(schema.fields):
        spec = schema.spec(number)
        if spec.name not in record:
            continue
        value = record[spec.name]
        tag = (number << 3) | spec.kind.value
        out += write_varint(tag)
        if spec.kind is FieldKind.UINT:
            out += write_varint(value)
        elif spec.kind is FieldKind.SINT:
            out += write_varint(zigzag_encode(value))
        else:
            payload = value.encode() if spec.kind is FieldKind.STRING else bytes(value)
            out += write_varint(len(payload))
            out += payload
    return bytes(out)


def deserialize(data: bytes, schema: Schema) -> dict:
    """Decode wire bytes into a {name: value} record (unknown fields skipped)."""
    record = {}
    offset = 0
    while offset < len(data):
        tag, offset = read_varint(data, offset)
        number, kind_value = tag >> 3, tag & 0x7
        if kind_value > 3:
            raise ValueError("unknown wire kind %d" % kind_value)
        kind = FieldKind(kind_value)
        if kind in _LENGTH_DELIMITED:
            length, offset = read_varint(data, offset)
            payload = data[offset : offset + length]
            if len(payload) != length:
                raise ValueError("truncated length-delimited field")
            offset += length
        else:
            payload, offset = read_varint(data, offset)
        if number not in schema.fields:
            continue  # forward compatibility: skip unknown fields
        spec = schema.spec(number)
        if spec.kind.value != kind_value:
            raise ValueError(
                "field %d encoded as %s, schema says %s" % (number, kind, spec.kind)
            )
        if kind is FieldKind.UINT:
            record[spec.name] = payload
        elif kind is FieldKind.SINT:
            record[spec.name] = zigzag_decode(payload)
        elif kind is FieldKind.STRING:
            record[spec.name] = payload.decode()
        else:
            record[spec.name] = bytes(payload)
    return record


# -- flat format (the accelerator's output) ----------------------------------------------

_FLAT_HEADER = 8  # field u16 | kind u8 | pad u8 | length u32


def _align8(n: int) -> int:
    return (n + 7) & ~7


def flatten(data: bytes, schema: Schema) -> bytes:
    """Parse wire bytes into the aligned flat representation.

    This is the transform the deserialization DSA performs: after it, the
    CPU touches each field with one aligned load instead of walking
    varints.  Unknown fields are preserved (kind from the wire).
    """
    out = bytearray()
    offset = 0
    while offset < len(data):
        tag, offset = read_varint(data, offset)
        number, kind_value = tag >> 3, tag & 0x7
        if kind_value > 3:
            raise ValueError("unknown wire kind %d" % kind_value)
        kind = FieldKind(kind_value)
        if kind in _LENGTH_DELIMITED:
            length, offset = read_varint(data, offset)
            payload = data[offset : offset + length]
            if len(payload) != length:
                raise ValueError("truncated length-delimited field")
            offset += length
        else:
            value, offset = read_varint(data, offset)
            payload = value.to_bytes(8, "little")
        out += number.to_bytes(2, "little")
        out += bytes([kind_value, 0])
        out += len(payload).to_bytes(4, "little")
        out += payload
        out += bytes(_align8(len(payload)) - len(payload))
    return bytes(out)


def unflatten(flat: bytes, schema: Schema) -> dict:
    """Consume the flat representation back into a record (CPU side)."""
    record = {}
    offset = 0
    while offset < len(flat):
        if offset + _FLAT_HEADER > len(flat):
            raise ValueError("truncated flat entry header")
        number = int.from_bytes(flat[offset : offset + 2], "little")
        kind = FieldKind(flat[offset + 2])
        length = int.from_bytes(flat[offset + 4 : offset + 8], "little")
        payload = flat[offset + 8 : offset + 8 + length]
        if len(payload) != length:
            raise ValueError("truncated flat entry payload")
        offset += _FLAT_HEADER + _align8(length)
        if number not in schema.fields:
            continue
        spec = schema.spec(number)
        if spec.kind is FieldKind.UINT:
            record[spec.name] = int.from_bytes(payload, "little")
        elif spec.kind is FieldKind.SINT:
            record[spec.name] = zigzag_decode(int.from_bytes(payload, "little"))
        elif spec.kind is FieldKind.STRING:
            record[spec.name] = payload.decode()
        else:
            record[spec.name] = bytes(payload)
    return record
