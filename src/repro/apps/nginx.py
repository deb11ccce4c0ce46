"""A functional Nginx-like web server with pluggable ULP backends.

This is the model analogue of the paper's modified nginx: it parses real
HTTP requests, looks content up in an in-memory content store (the page
cache), optionally compresses the body (Content-Encoding: deflate) and/or
protects it with TLS 1.3 records, and emits real bytes.  The ULP work is
delegated to a :class:`UlpBackend`, of which three are provided:

* :class:`SoftwareBackend` — OpenSSL-style on-CPU execution;
* :class:`QuickAssistBackend` — the lookaside card model;
* :class:`SmartDIMMBackend` — CompCpy offload through a
  :class:`repro.core.offload_api.SmartDIMMSession`, optionally adaptive via
  :class:`repro.core.engine.AdaptiveOffloadEngine` (the Fig. 8 stack).

All backends produce byte-identical responses, which the integration tests
assert — the placement changes *where* the ULP runs, never *what* it does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accel.cpu_onload import CpuOnload
from repro.accel.quickassist import QuickAssist
from repro.core.engine import AdaptiveOffloadEngine, OffloadDecision
from repro.ulp.tls import TLSRecordLayer, fragment_message
from repro.workloads.http import HttpResponse, parse_request


class UlpBackend:
    """Where the server's ULP work executes."""

    name = "abstract"

    def tls_encrypt(self, key: bytes, nonce: bytes, plaintext: bytes, aad: bytes) -> bytes:
        """Returns ciphertext || 16-byte tag."""
        raise NotImplementedError

    def tls_decrypt(
        self, key: bytes, nonce: bytes, ciphertext: bytes, aad: bytes, tag: bytes
    ) -> bytes:
        """Verifies the tag and returns the plaintext (RX path, Sec. V-C:
        the TCP ULP hook runs after the TCP layer on reception, before the
        copy to userspace)."""
        raise NotImplementedError

    def compress(self, data: bytes) -> bytes:
        """Returns a raw DEFLATE stream for `data`."""
        raise NotImplementedError


class SoftwareBackend(UlpBackend):
    """On-CPU OpenSSL/zlib-equivalent execution."""

    name = "cpu"

    def __init__(self, onload: CpuOnload = None):
        self.onload = onload or CpuOnload()

    def tls_encrypt(self, key, nonce, plaintext, aad):
        """See :meth:`UlpBackend.tls_encrypt`."""
        return self.onload.tls_encrypt(key, nonce, plaintext, aad).payload

    def tls_decrypt(self, key, nonce, ciphertext, aad, tag):
        """See :meth:`UlpBackend.tls_decrypt`."""
        return self.onload.tls_decrypt(key, nonce, ciphertext, aad, tag).payload

    def compress(self, data):
        """See :meth:`UlpBackend.compress`."""
        return self.onload.compress(data).payload


class QuickAssistBackend(UlpBackend):
    """Lookaside PCIe-card execution."""

    name = "quickassist"

    def __init__(self, card: QuickAssist = None):
        self.card = card or QuickAssist()

    def tls_encrypt(self, key, nonce, plaintext, aad):
        """See :meth:`UlpBackend.tls_encrypt`."""
        return self.card.tls_encrypt(key, nonce, plaintext, aad).payload

    def tls_decrypt(self, key, nonce, ciphertext, aad, tag):
        """See :meth:`UlpBackend.tls_decrypt`."""
        # The card computes the tag alongside decryption; comparison is host
        # work either way — reuse the software path for the check.
        from repro.ulp.ctx_cache import cached_aesgcm

        return cached_aesgcm(key).decrypt(nonce, ciphertext, aad, tag)

    def compress(self, data):
        """See :meth:`UlpBackend.compress`."""
        return self.card.compress(data).payload


class SmartDIMMBackend(UlpBackend):
    """CompCpy offload, with optional adaptive on/offloading (Fig. 8).

    When an :class:`AdaptiveOffloadEngine` is supplied, each message is
    dispatched to SmartDIMM only under LLC contention; otherwise the
    software fallback runs — the paper's per-message adaptivity.
    """

    name = "smartdimm"

    def __init__(self, session, engine: AdaptiveOffloadEngine = None):
        self.session = session
        self.engine = engine
        self._fallback = SoftwareBackend()
        self.offloaded_messages = 0
        self.onloaded_messages = 0

    def _use_smartdimm(self) -> bool:
        if self.engine is None:
            return True
        return self.engine.decide() is OffloadDecision.SMARTDIMM

    def tls_encrypt(self, key, nonce, plaintext, aad):
        """Encrypt on SmartDIMM or the CPU per the adaptive decision."""
        if self._use_smartdimm():
            self.offloaded_messages += 1
            return self.session.tls_encrypt(key, nonce, plaintext, aad)
        self.onloaded_messages += 1
        return self._fallback.tls_encrypt(key, nonce, plaintext, aad)

    def tls_decrypt(self, key, nonce, ciphertext, aad, tag):
        """Decrypt on SmartDIMM (CPU compares the tag) or fall back."""
        if self._use_smartdimm():
            self.offloaded_messages += 1
            # The DIMM deposits plaintext || computed tag; the CPU performs
            # the comparison (the DIMM has no fault channel).
            out = self.session.tls_decrypt(key, nonce, ciphertext, aad)
            plaintext, computed = out[:-16], out[-16:]
            if computed != tag:
                raise ValueError("GCM authentication tag mismatch")
            return plaintext
        self.onloaded_messages += 1
        return self._fallback.tls_decrypt(key, nonce, ciphertext, aad, tag)

    def compress(self, data):
        """Compress on SmartDIMM (page streams) or the CPU (one stream)."""
        if self._use_smartdimm():
            streams = self.session.deflate_message(data)
            if all(s is not None for s in streams):
                self.offloaded_messages += 1
                return streams
        # Hardware overflow (incompressible page) or onload decision.
        self.onloaded_messages += 1
        return self._fallback.compress(data)


@dataclass
class ServerConfig:
    tls: bool = False
    compression: bool = False
    tls_key: bytes = bytes(range(16))
    tls_iv: bytes = bytes(12)
    record_size: int = 16384


@dataclass
class ServerStats:
    requests: int = 0
    responses_404: int = 0
    body_bytes: int = 0
    wire_bytes: int = 0
    records_sent: int = 0


class NginxServer:
    """Serves a content store over (optionally compressed/TLS) HTTP."""

    def __init__(self, config: ServerConfig, backend: UlpBackend, content: dict = None):
        self.config = config
        self.backend = backend
        self.content = dict(content or {})
        self.stats = ServerStats()
        # TLS record protection is per connection: each connection owns a
        # sequence-number space (RFC 8446 Sec. 5.3).
        self._tls_tx_by_connection = {}

    def add_content(self, path: str, body: bytes) -> None:
        """Publish `body` at `path` in the content store."""
        self.content[path] = bytes(body)

    # -- request handling -----------------------------------------------------------

    def handle(self, raw_request: bytes, connection_id: int = 0) -> bytes:
        """Process one request; returns the wire bytes sent to the client.

        With TLS enabled the returned bytes are the TLS record stream for
        `connection_id`; the client side (wrk model / tests) unprotects
        them with the paired receive context.
        """
        request = parse_request(raw_request)
        self.stats.requests += 1
        body = self.content.get(request.path)
        if body is None:
            self.stats.responses_404 += 1
            response = HttpResponse(status=404, body=b"not found")
        else:
            headers = {}
            if self.config.compression and request.accepts_deflate:
                compressed = self.backend.compress(body)
                if isinstance(compressed, list):
                    # SmartDIMM page-granular streams: each page is framed as
                    # its own deflate member written to the socket (Sec. V-C).
                    headers["content-encoding"] = "deflate-pages"
                    headers["x-page-count"] = str(len(compressed))
                    body = b"".join(
                        len(s).to_bytes(4, "big") + s for s in compressed
                    )
                else:
                    headers["content-encoding"] = "deflate"
                    body = compressed
            response = HttpResponse(status=200, body=body, headers=headers)
        plaintext = response.wire_bytes()
        self.stats.body_bytes += len(response.body)
        wire = self._protect(plaintext, connection_id)
        self.stats.wire_bytes += len(wire)
        return wire

    def _tls_tx(self, connection_id: int) -> TLSRecordLayer:
        layer = self._tls_tx_by_connection.get(connection_id)
        if layer is None:
            layer = TLSRecordLayer(self.config.tls_key, self.config.tls_iv)
            self._tls_tx_by_connection[connection_id] = layer
        return layer

    def _protect(self, plaintext: bytes, connection_id: int) -> bytes:
        if not self.config.tls:
            return plaintext
        tx = self._tls_tx(connection_id)
        out = bytearray()
        for fragment in fragment_message(plaintext, self.config.record_size):
            # Header framing on the CPU, payload protection wherever the
            # backend runs.
            out += tx.seal(fragment, self.backend.tls_encrypt)
            self.stats.records_sent += 1
        return bytes(out)
