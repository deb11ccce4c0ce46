"""wrk-style closed-loop load generator.

The paper's methodology (Sec. VI): "The workload generator runs the wrk
traffic generator, maintaining 1024 persistent connections to make HTTP
requests."  This model drives the functional server with persistent
connections, decodes the responses (TLS unprotect, deflate inflate) to
verify end-to-end correctness, and reports request/byte counts.

Functional throughput numbers (requests simulated per wall-second of the
host Python process) are *not* performance claims — performance comparisons
come from :mod:`repro.sim.server`.  This generator exists so the protocol
path is exercised for real.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ulp.deflate import deflate_decompress
from repro.ulp.tls import TLSRecordLayer
from repro.workloads.http import build_request, parse_response


@dataclass
class WrkReport:
    requests: int = 0
    responses_ok: int = 0
    body_bytes: int = 0
    wire_bytes: int = 0
    decode_failures: int = 0


class _Connection:
    """One persistent client connection with its own TLS receive state."""

    def __init__(self, server, connection_id: int, tls: bool):
        self.server = server
        self.connection_id = connection_id
        self.rx = (
            TLSRecordLayer(server.config.tls_key, server.config.tls_iv)
            if tls
            else None
        )

    def get(self, path: str, accept_deflate: bool) -> bytes:
        wire = self.server.handle(
            build_request(path, accept_deflate=accept_deflate),
            connection_id=self.connection_id,
        )
        return self._decode(wire), len(wire)

    def _decode(self, wire: bytes):
        if self.rx is None:
            return wire
        plaintext = bytearray()
        offset = 0
        while offset < len(wire):
            fragment, _, offset = self.rx.open(wire, offset)
            plaintext += fragment
        return bytes(plaintext)


class WrkLoadGenerator:
    """Drives an NginxServer over N persistent connections."""

    def __init__(self, server, connections: int = 16):
        self.server = server
        self.connections = [
            _Connection(server, connection_id=i, tls=server.config.tls)
            for i in range(connections)
        ]
        self.report = WrkReport()

    def run(self, paths: list, requests: int, accept_deflate: bool = None) -> WrkReport:
        """Issue `requests` GETs round-robin across connections and paths,
        verifying every response decodes to the expected content."""
        if accept_deflate is None:
            accept_deflate = self.server.config.compression
        for i in range(requests):
            connection = self.connections[i % len(self.connections)]
            path = paths[i % len(paths)]
            decoded, wire_len = connection.get(path, accept_deflate)
            self.report.requests += 1
            self.report.wire_bytes += wire_len
            response = parse_response(decoded)
            if response.status != 200:
                continue
            body = self._decode_body(response)
            if body is None:
                self.report.decode_failures += 1
                continue
            expected = self.server.content.get(path)
            if body == expected:
                self.report.responses_ok += 1
                self.report.body_bytes += len(body)
            else:
                self.report.decode_failures += 1
        return self.report

    @staticmethod
    def _decode_body(response):
        encoding = response.headers.get("content-encoding", "")
        try:
            if encoding == "deflate":
                return deflate_decompress(response.body)
            if encoding == "deflate-pages":
                out = bytearray()
                data = response.body
                offset = 0
                while offset < len(data):
                    length = int.from_bytes(data[offset : offset + 4], "big")
                    out += deflate_decompress(data[offset + 4 : offset + 4 + length])
                    offset += 4 + length
                return bytes(out)
            return response.body
        except (ValueError, EOFError):
            return None
