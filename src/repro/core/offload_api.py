"""High-level SmartDIMM offload API.

:class:`SmartDIMMSession` builds the full micro-system — physical memory,
address mapping, memory controller, LLC, SmartDIMM device, driver, and
CompCpy — and exposes the ULP offloads as one-call operations that are
bit-compatible with the software implementations in :mod:`repro.ulp`:

* :meth:`SmartDIMMSession.tls_encrypt` / :meth:`tls_decrypt` — AES-GCM
  record protection producing ``ciphertext || tag`` identical to
  :class:`repro.ulp.gcm.AESGCM`.
* :meth:`SmartDIMMSession.deflate_page` / :meth:`deflate_message` — 4 KB
  page-granular compression whose output inflates back with stdlib zlib or
  :func:`repro.ulp.deflate.deflate_decompress`; :meth:`inflate_page` and
  :meth:`deserialize_message` are the same kind of page transform.

Every operation, the Compute DMA one included, runs through one offload
body: allocate both buffers, write the source, CompCpy, read back, verify
against the device checksum, parse, and on any failure abort the offload
before freeing its pages.

This is the model equivalent of the OpenSSL engine + nginx module of the
paper's artifact: everything an application needs to use SmartDIMM without
touching DDR commands.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.address import AddressMapping, InterleaveMode
from repro.dram.commands import PAGE_SIZE
from repro.dram.memory_controller import MemoryController, TimingParams
from repro.dram.physical_memory import PhysicalMemory
from repro.dram.ras import MemoryRas, RasConfig
from repro.cache.llc import LLC
from repro.core.compcpy import CompCpy, CompCpyError
from repro.core.scratchpad import ScratchpadFullError
from repro.core.translation_table import CuckooInsertError
from repro.faults.errors import DeadlineExceededError, FaultError
from repro.faults.health import CircuitBreaker, DsaHealthMonitor
from repro.overload.retry import RetryBudget
from repro.core.compute_dma import ComputeDMA
from repro.core.direct_offload import DirectOffloadEngine
from repro.core.driver import SmartDIMMDriver
from repro.core.smartdimm import SmartDIMM, SmartDIMMConfig
from repro.core.dsa.base import UlpKind
from repro.core.dsa.tls_dsa import TLSOffloadContext
from repro.core.dsa.deflate_dsa import (
    MAX_PAYLOAD,
    DeflateOffloadContext,
    HardwareMatcher,
    InflateOffloadContext,
    frame_page,
    parse_compressed_page,
)
from repro.core.dsa.serde_dsa import SerdeOffloadContext
from repro.ulp.deflate import deflate_compress, deflate_decompress
from repro.ulp.gcm import AESGCM, xor_bytes

TAG_SIZE = 16


def _pages_for(length: int) -> int:
    return max(1, (length + PAGE_SIZE - 1) // PAGE_SIZE)


@dataclass
class ResilienceConfig:
    """Policy knobs for the session's health monitor + circuit breaker.

    The breaker's clock is the session *operation counter* (not cycles or
    wall time), so identically-seeded runs make identical spill decisions.
    """

    window: int = 8  # sliding-window size (operations)
    alert_rate_threshold: float = 64.0  # mean ALERT_N retries/op before "unhealthy"
    latency_threshold: float = float("inf")  # mean cycles/op before "unhealthy"
    failure_threshold: int = 2  # consecutive failures that trip the breaker
    cooldown_ops: int = 4  # operations spilled to CPU before a probe


@dataclass
class ResilienceStats:
    """Session-level offload-vs-onload accounting."""

    offloaded_ops: int = 0  # completed on the DSA
    onloaded_ops: int = 0  # completed on the CPU (spill or recovery)
    hw_failures: int = 0  # typed faults recovered by onloading
    shed_ops: int = 0  # dropped: deadline expired before/while serving


@dataclass
class SessionConfig:
    """Micro-system sizing for a SmartDIMM session."""

    memory_bytes: int = 64 * 1024 * 1024
    llc_bytes: int = 2 * 1024 * 1024
    llc_ways: int = 16
    rows: int = 1 << 9  # keep the mapped space small for fast simulation
    columns_per_row: int = 128
    smartdimm: SmartDIMMConfig = None
    trace: bool = False
    # Fault-injection plan threaded through the device (None = no injection,
    # zero overhead) and the SEC-DED model toggle for injected DRAM flips.
    fault_plan: object = None
    ecc: bool = True
    # Resilience guard; defaults on whenever a fault plan is attached.
    resilience: ResilienceConfig = None
    # Shared retry budget for every retry loop under this session
    # (CompCpy Force-Recycle today; None = a fresh default bucket).
    retry_budget: RetryBudget = None
    # Memory RAS engine (latent flips, patrol scrub, CE->UE poison);
    # None = no RAS model, zero overhead.  The flip depositor draws from
    # the fault plan's ``dram.cell_flip`` stream when one is attached.
    ras: RasConfig = None

    def __post_init__(self):
        if self.smartdimm is None:
            self.smartdimm = SmartDIMMConfig()
        if self.resilience is None and self.fault_plan is not None:
            self.resilience = ResilienceConfig()


class SmartDIMMSession:
    """A single-channel server slice with a SmartDIMM on its memory bus."""

    def __init__(self, config: SessionConfig = None):
        self.config = config or SessionConfig()
        self.mapping = AddressMapping(
            channels=1,
            rows=self.config.rows,
            columns_per_row=self.config.columns_per_row,
            interleave=InterleaveMode.SINGLE_CHANNEL,
        )
        capacity = min(self.config.memory_bytes, self.mapping.total_capacity)
        self.memory = PhysicalMemory(capacity)
        self.device = SmartDIMM(
            self.memory, self.mapping, channel=0, config=self.config.smartdimm
        )
        self.mc = MemoryController(
            self.mapping, {0: self.device}, TimingParams(),
            trace=self.config.trace,
        )
        self.llc = LLC(self.mc, size=self.config.llc_bytes, ways=self.config.llc_ways)
        self.driver = SmartDIMMDriver(self.device, self.mc)
        self.retry_budget = self.config.retry_budget or RetryBudget()
        self.compcpy = CompCpy(self.llc, self.mc, self.driver,
                               retry_budget=self.retry_budget)
        self.compute_dma = ComputeDMA(self.llc, self.mc, self.driver)
        self.direct_offload = DirectOffloadEngine(self.llc, self.mc, self.driver)
        if self.config.fault_plan is not None:
            self.device.attach_fault_plan(self.config.fault_plan, ecc=self.config.ecc)
        if self.config.ras is not None:
            self.ras = MemoryRas(self.memory, plan=self.config.fault_plan,
                                 config=self.config.ras)
            self.memory.attach_ras(self.ras)
        else:
            self.ras = None
        resilience = self.config.resilience
        if resilience is not None:
            self.health = DsaHealthMonitor(
                window=resilience.window,
                alert_rate_threshold=resilience.alert_rate_threshold,
                latency_threshold=resilience.latency_threshold,
            )
            self.breaker = CircuitBreaker(
                failure_threshold=resilience.failure_threshold,
                cooldown=resilience.cooldown_ops,
            )
        else:
            self.health = None
            self.breaker = None
        self.resilience_stats = ResilienceStats()
        self._ops = 0  # the breaker's deterministic clock

    # -- resilience guard -------------------------------------------------------------

    def _check_deadline(self, deadline_cycles, site: str) -> None:
        """Shed with DeadlineExceededError when the budget is spent.

        The deadline clock is the memory controller's cycle counter — the
        micro stack's only notion of time — so identically-seeded runs shed
        identically.
        """
        if deadline_cycles is not None and self.mc.cycle >= deadline_cycles:
            self.resilience_stats.shed_ops += 1
            raise DeadlineExceededError(
                "offload deadline expired at %s (cycle %d >= %d)"
                % (site, self.mc.cycle, deadline_cycles),
                site=site, now=float(self.mc.cycle),
                deadline=float(deadline_cycles),
            )

    def _run_resilient(self, hardware, onload, deadline_cycles=None):
        """Run one offload under the health monitor + circuit breaker.

        `hardware` performs the DSA path and must clean up after itself on a
        typed fault (abort the offload, free pages); `onload` is the
        bit-identical CPU implementation.  With no resilience configured the
        hardware path runs unguarded — faults propagate to the caller.

        `deadline_cycles` is an absolute controller-cycle deadline: checked
        at submission (shed instead of queueing dead work) and again before
        the onload fallback (a recovery that would finish late is shed, not
        served).
        """
        if self.ras is not None:
            # Background RAS activity (flip deposits + patrol bursts) runs
            # between operations; scrub bandwidth is charged to the
            # controller clock so it visibly costs goodput.
            self.mc.cycle += self.ras.advance(self.mc.cycle)
        self._check_deadline(deadline_cycles, "submit")
        if self.breaker is None:
            return hardware()
        self._ops += 1
        now = self._ops
        if not self.breaker.allow(now):
            # Breaker OPEN: the DSA is quarantined, spill to the CPU.
            self.resilience_stats.onloaded_ops += 1
            return onload()
        alerts_before = self.mc.stats.alerts
        cycle_before = self.mc.cycle
        try:
            result = hardware()
        except DeadlineExceededError:
            # Already-shed work is not a hardware failure: don't count it
            # against the breaker, and never fall back to a late onload.
            raise
        except (FaultError, ScratchpadFullError, CuckooInsertError, CompCpyError):
            self.health.observe(
                alerts=self.mc.stats.alerts - alerts_before,
                latency=float(self.mc.cycle - cycle_before),
                ok=False,
            )
            self.breaker.record_failure(now)
            self.resilience_stats.hw_failures += 1
            # Recovery costs CPU time too: re-check the budget before
            # onloading so expired work is shed instead of served late.
            self._check_deadline(deadline_cycles, "onload")
            self.resilience_stats.onloaded_ops += 1
            return onload()
        self.health.observe(
            alerts=self.mc.stats.alerts - alerts_before,
            latency=float(self.mc.cycle - cycle_before),
            ok=True,
        )
        if (self.health.alert_rate() > self.health.alert_rate_threshold
                or self.health.mean_latency() > self.health.latency_threshold):
            # Degradation without a hard failure (an ALERT_N storm): count
            # it against the breaker so sustained storms also trip it.  Past
            # hard failures are deliberately *not* re-counted here — they
            # already hit record_failure — so a clean probe re-closes the
            # breaker instead of re-tripping on window history.
            self.breaker.record_failure(now)
        else:
            self.breaker.record_success(now)
        self.resilience_stats.offloaded_ops += 1
        return result

    def pump_ras(self) -> None:
        """Advance background RAS activity to the current controller cycle.

        Called automatically at each resilient-op boundary; harnesses that
        model data at rest (no offload traffic) pump explicitly.
        """
        if self.ras is not None:
            self.mc.cycle += self.ras.advance(self.mc.cycle)

    # -- buffer management ------------------------------------------------------------

    def alloc(self, length: int) -> int:
        """Reserve pages covering `length` bytes; returns the base address."""
        return self.driver.alloc_pages(_pages_for(length))

    def free(self, address: int) -> None:
        """Release a buffer allocated with :meth:`alloc`."""
        self.driver.free_pages(address)

    def write(self, address: int, data: bytes) -> None:
        """Application write through the LLC."""
        self.compcpy.write_buffer(address, data)

    def read(self, address: int, length: int) -> bytes:
        """Application read through the LLC."""
        return self.compcpy.read_buffer(address, length)

    # -- the one offload body (Algorithm 2 from the application's side) ------------------

    def _offload(self, kind: UlpKind, context, source: bytes, pages: int,
                 length: int = None, dma: bool = False):
        """Run one offload over fresh `pages`-page source and destination
        buffers; every ULP goes through here.

        The source is zero-padded to the buffer.  A size-preserving ULP
        (TLS) reads back `length` bytes; a page transform (`length` None)
        copies in order, reads its whole framed destination and returns
        the parsed payload (None on overflow).  CompCpy read-backs are
        verified against the device checksum.  With `dma` the source
        arrives by Compute DMA (Sec. IV-E) instead of CompCpy.
        """
        size = pages * PAGE_SIZE
        framed = length is None
        padded = source + bytes(size - len(source))
        sbuf = self.driver.alloc_pages(pages)
        dbuf = self.driver.alloc_pages(pages)
        offload = None
        try:
            if dma:
                offload = self.compute_dma.register(dbuf, sbuf, size, context, kind)
                self.compute_dma.dma_in(sbuf, padded)
                return self.compute_dma.read_result(dbuf, length)
            self.write(sbuf, padded)
            # Page transforms are stateful over their input: ordered copy.
            offload = self.compcpy.compcpy(dbuf, sbuf, size, context, kind,
                                           ordered=framed)
            result = self.read(dbuf, size if framed else length)
            self.compcpy.verify_destination(offload, dbuf, size)
            return parse_compressed_page(result) if framed else result
        except Exception:
            # Abort *before* the frees below: with the offload torn down,
            # page reclaim has no scratchpad bindings left to wait on, so
            # cleanup never spins behind a wedged DSA.
            if offload is not None:
                self.driver.abort_offload(offload)
            raise
        finally:
            self.driver.free_pages(sbuf)
            self.driver.free_pages(dbuf)

    # -- TLS offload (Sec. V-A) -----------------------------------------------------------

    def tls_encrypt(self, key: bytes, nonce: bytes, plaintext: bytes,
                    aad: bytes = b"", deadline_cycles: int = None) -> bytes:
        """Encrypt a record payload on SmartDIMM; returns ciphertext || tag.

        `deadline_cycles` (absolute, on the memory controller's clock)
        sheds the op with :class:`DeadlineExceededError` when the budget is
        already spent at submission or when recovery would finish late.
        """
        return self._tls_offload(key, nonce, plaintext, aad, decrypt=False,
                                 deadline_cycles=deadline_cycles)

    def tls_decrypt(
        self, key: bytes, nonce: bytes, ciphertext: bytes, aad: bytes = b"",
        deadline_cycles: int = None
    ) -> bytes:
        """Decrypt on SmartDIMM; returns plaintext || computed tag.

        The caller compares the trailing 16 bytes against the record tag —
        the DIMM deposits the computed tag but the comparison stays on the
        CPU (the DIMM has no fault channel).
        """
        return self._tls_offload(key, nonce, ciphertext, aad, decrypt=True,
                                 deadline_cycles=deadline_cycles)

    def _tls_offload(self, key, nonce, payload, aad, decrypt: bool,
                     deadline_cycles: int = None) -> bytes:
        length = len(payload) + TAG_SIZE
        return self._run_resilient(
            lambda: self._offload(
                UlpKind.TLS_DECRYPT if decrypt else UlpKind.TLS_ENCRYPT,
                TLSOffloadContext(key=key, nonce=nonce, record_length=len(payload),
                                  aad=aad, decrypt=decrypt),
                payload, _pages_for(length), length),
            lambda: self._tls_onload(key, nonce, payload, aad, decrypt),
            deadline_cycles=deadline_cycles,
        )

    def _tls_onload(self, key, nonce, payload, aad, decrypt: bool) -> bytes:
        """The CPU implementation (Observation 2's onload direction) —
        bit-identical to the DSA output: ciphertext || tag for encrypt,
        plaintext || *computed* tag for decrypt (comparison stays with the
        caller, matching :meth:`tls_decrypt`'s contract)."""
        gcm = AESGCM(key)
        if decrypt:
            plaintext = xor_bytes(payload, gcm.keystream(nonce, len(payload)))
            return plaintext + gcm.tag(nonce, payload, aad)
        ciphertext, tag = gcm.encrypt(nonce, payload, aad)
        return ciphertext + tag

    # -- compression offload (Sec. V-B) -----------------------------------------------------

    def deflate_page(self, data: bytes, matcher: HardwareMatcher = None,
                     deadline_cycles: int = None):
        """Compress up to one 4 KB page; returns the DEFLATE stream or None
        when the hardware output did not fit (software falls back to CPU)."""
        if len(data) > PAGE_SIZE:
            raise ValueError("deflate offload operates at 4KB page granularity")
        return self._run_resilient(
            lambda: self._offload(
                UlpKind.DEFLATE,
                DeflateOffloadContext(matcher=matcher or HardwareMatcher(),
                                      input_length=len(data)),
                data, 1),
            # CPU onload: a software DEFLATE stream — not bit-identical to
            # the hardware matcher's choices, but decodes to the same bytes,
            # which is all the deflate contract promises.
            lambda: deflate_compress(data),
            deadline_cycles=deadline_cycles,
        )

    def deflate_message(self, data: bytes) -> list:
        """Compress a message page by page (one CompCpy per page, Sec. V-C).

        Returns one entry per page: the DEFLATE stream, or None on hardware
        overflow for that page.
        """
        return [
            self.deflate_page(data[offset : offset + PAGE_SIZE])
            for offset in range(0, max(len(data), 1), PAGE_SIZE)
        ]

    def inflate_page(self, stream: bytes, deadline_cycles: int = None):
        """Decompress one page-framed DEFLATE stream on the DIMM (the RX
        direction of "(de)compression"); returns the decompressed bytes or
        None when the hardware fell back (corrupt stream or output larger
        than a page)."""
        if len(stream) > MAX_PAYLOAD:
            raise ValueError("inflate offload operates at 4KB page granularity")
        return self._run_resilient(
            # Decompression is expansive: register a two-page destination
            # (the compressor guarantees each SmartDIMM-compressed page
            # inflates to at most 4KB, which fits the two-page budget with
            # its prefix).
            lambda: self._offload(UlpKind.INFLATE, InflateOffloadContext(),
                                  frame_page(stream), 2),
            lambda: deflate_decompress(stream, max_output=2 * PAGE_SIZE),
            deadline_cycles=deadline_cycles,
        )

    # -- deserialization offload (extension ULP) ----------------------------------------

    def deserialize_message(self, wire: bytes, schema):
        """Parse a wire-format message into its flat representation on the
        DIMM; returns the flat bytes, or None when the hardware fell back
        (flat form too large for the page, or malformed input).

        Follows the deflate contract: [4B length][wire] in the source page,
        ordered CompCpy, [4B length][flat] or overflow marker in the
        destination page.
        """
        if len(wire) > MAX_PAYLOAD:
            raise ValueError("serde offload operates at 4KB page granularity")
        return self._offload(UlpKind.DESERIALIZE, SerdeOffloadContext(schema=schema),
                             frame_page(wire), 1)

    # -- Compute DMA extension (Sec. IV-E) -------------------------------------------

    def tls_encrypt_dma(self, key: bytes, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt a payload *as a device DMAs it in* — the CPU never
        touches the bytes (Compute DMA, Sec. IV-E).  Returns ct || tag."""
        length = len(plaintext) + TAG_SIZE
        context = TLSOffloadContext(
            key=key, nonce=nonce, record_length=len(plaintext), aad=aad
        )
        return self._offload(UlpKind.TLS_ENCRYPT, context, plaintext,
                             _pages_for(length), length, dma=True)
