"""Kernel TLS (kTLS) socket model (Sec. V-C).

The paper notes that "the addition of in-kernel TLS (e.g., Linux kTLS)
allows SmartDIMM to perform offloading in kernel space as well", and that
the kernel's TCP ULP infrastructure runs before/after the TCP layer on
transmit/receive, "offering an entry for offloading to accelerators in
addition to SmartNIC".

:class:`KtlsConnection` models one such socket pair: a bidirectional
record-protected byte stream whose (de/en)cryption runs through a pluggable
:class:`~repro.apps.nginx.UlpBackend` at the kernel's ULP hook points —
TX protection at ``sendmsg`` time, RX unprotection before the copy to
userspace.  Both directions carry independent sequence spaces and keys, as
in TLS 1.3.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ulp.tls import TLSRecordLayer


@dataclass
class KtlsStats:
    records_sent: int = 0
    records_received: int = 0
    bytes_protected: int = 0
    bytes_unprotected: int = 0
    auth_failures: int = 0


class KtlsConnection:
    """One endpoint of a kTLS-protected connection.

    Two endpoints form a connection when constructed with mirrored key
    material: A's tx keys are B's rx keys and vice versa.
    """

    def __init__(
        self,
        backend,
        tx_key: bytes,
        tx_iv: bytes,
        rx_key: bytes,
        rx_iv: bytes,
        record_size: int = 16384,
    ):
        self.backend = backend
        self._tx = TLSRecordLayer(tx_key, tx_iv)
        self._rx = TLSRecordLayer(rx_key, rx_iv)
        self.record_size = min(record_size, 16384)
        self.stats = KtlsStats()

    # -- TX: the kernel ULP hook before the TCP layer ------------------------------

    def send(self, data: bytes) -> bytes:
        """Protect application bytes into a TLS record stream (wire bytes)."""
        wire = bytearray()
        for offset in range(0, max(len(data), 1), self.record_size):
            fragment = data[offset : offset + self.record_size]
            wire += self._tx.seal(fragment, self.backend.tls_encrypt)
            self.stats.records_sent += 1
            self.stats.bytes_protected += len(fragment)
        return bytes(wire)

    # -- RX: the kernel ULP hook after the TCP layer ----------------------------------

    def receive(self, wire: bytes) -> bytes:
        """Unprotect a record stream into application bytes.

        Raises ValueError on authentication failure (and counts it), as the
        kernel would reset the connection.
        """
        plaintext = bytearray()
        offset = 0
        while offset < len(wire):
            fragment, _, offset = self._rx.open(wire, offset, self._decrypt)
            plaintext += fragment
            self.stats.records_received += 1
            self.stats.bytes_unprotected += len(fragment)
        return bytes(plaintext)

    def _decrypt(self, *args) -> bytes:
        try:
            return self.backend.tls_decrypt(*args)
        except ValueError:
            self.stats.auth_failures += 1
            raise


def ktls_pair(server_backend, client_backend, seed: int = 0) -> tuple:
    """A connected (server, client) kTLS endpoint pair with mirrored keys."""
    s2c_key = bytes((seed + i) & 0xFF for i in range(16))
    c2s_key = bytes((seed + 100 + i) & 0xFF for i in range(16))
    s2c_iv = bytes((seed + 50 + i) & 0xFF for i in range(12))
    c2s_iv = bytes((seed + 150 + i) & 0xFF for i in range(12))
    server = KtlsConnection(server_backend, s2c_key, s2c_iv, c2s_key, c2s_iv)
    client = KtlsConnection(client_backend, c2s_key, c2s_iv, s2c_key, s2c_iv)
    return server, client
