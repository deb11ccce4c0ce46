"""Domain-specific accelerators living on SmartDIMM's buffer device.

Each DSA consumes 64-byte sbuf cachelines as their rdCAS commands reach the
buffer device and deposits results into the scratchpad.  The contract with
the arbiter is the :class:`repro.core.dsa.base.DSA` interface; the
concrete accelerators are

* :class:`repro.core.dsa.tls_dsa.TLSDSA` — AES-GCM record protection with
  out-of-order cacheline support via stride-4 H powers (Sec. V-A).
* :class:`repro.core.dsa.deflate_dsa.DeflateDSA` — hardware-constrained
  deflate with an 8-byte parallelisation window and banked candidate memory
  (Sec. V-B); :class:`~repro.core.dsa.deflate_dsa.InflateDSA` and
  :class:`~repro.core.dsa.serde_dsa.SerdeDSA` share its
  :class:`~repro.core.dsa.deflate_dsa.PageTransformDSA` protocol (ordered
  input, framed output that may overflow to the CPU).
"""

from repro.core.dsa.base import DSA, Offload, OffloadState, UlpKind
from repro.core.dsa.tls_dsa import TLSDSA, TLSOffloadContext
from repro.core.dsa.deflate_dsa import DeflateDSA, DeflateOffloadContext, HardwareMatcher

__all__ = [
    "DSA",
    "Offload",
    "OffloadState",
    "UlpKind",
    "TLSDSA",
    "TLSOffloadContext",
    "DeflateDSA",
    "DeflateOffloadContext",
    "HardwareMatcher",
]
