"""cProfile harness for the CompCpy micro-simulation hot path.

The batched line-op fast path was tuned off exactly this view: one warmed
``tls_encrypt`` call profiled end to end, sorted by cumulative or internal
time.  Exposed as ``python -m repro profile`` so the next optimisation
round starts from the same instrument instead of re-deriving it.
"""

from __future__ import annotations

import cProfile
import io
import pstats


def run_profile(
    size: int = 65536,
    top: int = 25,
    sort: str = "cumulative",
    fast_path: bool = True,
) -> str:
    """Profile one warmed TLS offload of `size` bytes; returns the report.

    `sort` is any :mod:`pstats` sort key (``cumulative``, ``tottime``, …).
    ``fast_path=False`` profiles the per-line reference path instead — the
    pair is how a fast-path change is shown to move the needle.
    """
    from repro.core.offload_api import SessionConfig, SmartDIMMSession

    key, nonce, aad = bytes(range(16)), bytes(range(12)), b"\x17\x03\x03"
    payload = bytes((7 * i + 3) & 0xFF for i in range(size))
    session = SmartDIMMSession(SessionConfig(fast_path=fast_path))
    session.tls_encrypt(key, nonce, payload, aad)  # warm: tables, caches
    profiler = cProfile.Profile()
    profiler.enable()
    session.tls_encrypt(key, nonce, payload, aad)
    profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats(sort).print_stats(top)
    return stream.getvalue()
