"""TLS 1.3 record layer (RFC 8446 Sec. 5) over AES-GCM.

This models exactly the slice of TLS the paper offloads: symmetric record
protection.  Handshake and key derivation stay on the CPU in every
configuration the paper evaluates (even QuickAssist offloads them as a
separate coarse-grain path), so we take traffic keys as given.

A :class:`TLSRecordLayer` holds one direction of a connection: a key, a
static IV, and a 64-bit sequence number that is XORed into the per-record
nonce.  Records round-trip between two layers constructed with the same key
material.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ulp.ctx_cache import cached_aesgcm
from repro.ulp.gcm import AESGCM, xor_bytes

CONTENT_TYPE_APPLICATION_DATA = 23
CONTENT_TYPE_ALERT = 21
CONTENT_TYPE_HANDSHAKE = 22

LEGACY_RECORD_VERSION = 0x0303
MAX_PLAINTEXT_SIZE = 16384  # 2^14, RFC 8446 Sec. 5.1
HEADER_SIZE = 5


@dataclass
class TLSRecord:
    """One protected record: 5-byte header + ciphertext + 16-byte tag."""

    content_type: int
    ciphertext: bytes
    tag: bytes

    @property
    def payload(self) -> bytes:
        return self.ciphertext + self.tag

    def wire_bytes(self) -> bytes:
        """Serialize to TLSCiphertext wire format."""
        body = self.payload
        return record_aad(len(body)) + body

    @classmethod
    def from_wire(cls, data: bytes) -> "TLSRecord":
        """Parse one record from wire bytes (must contain exactly one record)."""
        ciphertext, tag, _ = _split_record(data, 0)
        return cls(content_type=CONTENT_TYPE_APPLICATION_DATA,
                   ciphertext=ciphertext, tag=tag)


def _split_record(wire: bytes, offset: int) -> tuple:
    """(ciphertext, tag, end offset) of the record at ``wire[offset:]``."""
    if len(wire) - offset < HEADER_SIZE + AESGCM.TAG_SIZE:
        raise ValueError("record too short: %d bytes" % (len(wire) - offset))
    length = int.from_bytes(wire[offset + 3 : offset + 5], "big")
    end = offset + HEADER_SIZE + length
    if end > len(wire):
        raise ValueError("truncated record body")
    body = wire[offset + HEADER_SIZE : end]
    return body[: -AESGCM.TAG_SIZE], body[-AESGCM.TAG_SIZE :], end


def record_nonce(static_iv: bytes, sequence: int) -> bytes:
    """Per-record nonce: the 64-bit sequence number XORed into the IV tail."""
    if len(static_iv) != 12:
        raise ValueError("TLS 1.3 static IV must be 12 bytes")
    seq_bytes = sequence.to_bytes(8, "big")
    return xor_bytes(static_iv, bytes(4) + seq_bytes)


def record_aad(inner_length: int) -> bytes:
    """Additional data: the TLSCiphertext header (RFC 8446 Sec. 5.2)."""
    return (
        bytes([CONTENT_TYPE_APPLICATION_DATA])
        + LEGACY_RECORD_VERSION.to_bytes(2, "big")
        + inner_length.to_bytes(2, "big")
    )


class TLSRecordLayer:
    """One direction of TLS 1.3 record protection.

    :meth:`seal` and :meth:`open` are the record layer of every TLS
    endpoint in the package (nginx, kTLS, the wrk client): header framing,
    per-record nonces, the AAD and padding removal, over any AEAD — this
    layer's own AES-GCM, or a ULP backend's ``tls_encrypt`` /
    ``tls_decrypt`` wherever that runs.

    >>> tx = TLSRecordLayer(bytes(16), bytes(12))
    >>> rx = TLSRecordLayer(bytes(16), bytes(12))
    >>> rx.unprotect(tx.protect(b"GET / HTTP/1.1\\r\\n"))
    (b'GET / HTTP/1.1\\r\\n', 23)
    """

    def __init__(self, key: bytes, static_iv: bytes):
        self.key = bytes(key)
        # Shared per-key context: key schedule + GF tables built once
        # process-wide, exactly once per traffic key.
        self.gcm = cached_aesgcm(key)
        self.static_iv = bytes(static_iv)
        self.sequence = 0

    def next_nonce(self) -> bytes:
        """The nonce the next record will use (sequence not advanced)."""
        return record_nonce(self.static_iv, self.sequence)

    def seal(self, fragment: bytes, encrypt=None,
             content_type: int = CONTENT_TYPE_APPLICATION_DATA) -> bytes:
        """Protect one fragment into one record's wire bytes.

        ``encrypt(key, nonce, inner, aad)`` returns ciphertext || tag (a
        backend's ``tls_encrypt``; None uses this layer's AES-GCM).  The
        inner plaintext is ``fragment || content_type`` per RFC 8446;
        padding is not modelled (the paper's workloads never pad).
        """
        if len(fragment) > MAX_PLAINTEXT_SIZE:
            raise ValueError(
                "TLS plaintext fragment exceeds 2^14 bytes: %d" % len(fragment)
            )
        inner = fragment + bytes([content_type])
        nonce = self.next_nonce()
        aad = record_aad(len(inner) + AESGCM.TAG_SIZE)
        if encrypt is None:
            ciphertext, tag = self.gcm.encrypt(nonce, inner, aad)
            payload = ciphertext + tag
        else:
            payload = encrypt(self.key, nonce, inner, aad)
        self.sequence += 1
        return record_aad(len(payload)) + payload

    def open(self, wire: bytes, offset: int = 0, decrypt=None) -> tuple:
        """Unprotect the record at ``wire[offset:]``; returns (fragment,
        content_type, offset of the next record).

        ``decrypt(key, nonce, ciphertext, aad, tag)`` verifies the tag and
        returns the inner plaintext, raising ValueError on a mismatch (a
        backend's ``tls_decrypt``; None uses this layer's AES-GCM).
        """
        ciphertext, tag, end = _split_record(wire, offset)
        nonce = self.next_nonce()
        aad = record_aad(end - offset - HEADER_SIZE)
        if decrypt is None:
            inner = self.gcm.decrypt(nonce, ciphertext, aad, tag)
        else:
            inner = decrypt(self.key, nonce, ciphertext, aad, tag)
        self.sequence += 1
        # Strip zero padding, then the content-type octet.
        length = len(inner)
        while length > 0 and inner[length - 1] == 0:
            length -= 1
        if length == 0:
            raise ValueError("record contains only padding")
        return inner[: length - 1], inner[length - 1], end

    def protect(
        self, plaintext: bytes, content_type: int = CONTENT_TYPE_APPLICATION_DATA
    ) -> TLSRecord:
        """Encrypt a plaintext fragment into a protected record (:meth:`seal`
        over this layer's AES-GCM)."""
        wire = self.seal(plaintext, content_type=content_type)
        return TLSRecord(content_type=content_type,
                         ciphertext=wire[HEADER_SIZE : -AESGCM.TAG_SIZE],
                         tag=wire[-AESGCM.TAG_SIZE :])

    def unprotect(self, record: TLSRecord) -> tuple:
        """Decrypt and authenticate a record; returns (plaintext, content_type)."""
        plaintext, content_type, _ = self.open(record.wire_bytes())
        return plaintext, content_type


def fragment_message(message: bytes, fragment_size: int) -> list:
    """Split an application message into record-sized fragments.

    The paper's ULP messages (4 KB / 16 KB / 64 KB web responses) span
    multiple TLS records and multiple TCP segments; this helper produces the
    record-layer fragmentation.
    """
    if fragment_size <= 0:
        raise ValueError("fragment_size must be positive")
    fragment_size = min(fragment_size, MAX_PLAINTEXT_SIZE)
    return [
        message[offset : offset + fragment_size]
        for offset in range(0, max(len(message), 1), fragment_size)
    ]
