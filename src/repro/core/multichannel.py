"""Multi-channel SmartDIMM deployment (Sec. V-D).

Real servers interleave consecutive cachelines across memory channels, so a
4 KB buffer is scattered over every DIMM.  The paper's answer for
*size-preserving* ULPs: put a SmartDIMM on every channel, replicate the
configuration to each during source-buffer registration, and let each DIMM
transform the cachelines routed to it.  This module builds that system:

* one :class:`~repro.core.smartdimm.SmartDIMM` per channel, over a shared
  physical memory with ``InterleaveMode.CACHELINE`` mapping;
* TLS offloads registered on *every* device with a per-device context copy
  in ``positional`` GHASH mode (each DIMM owns a stride subset of blocks);
* a CPU-side tag combine (:func:`~repro.core.dsa.tls_dsa.combine_partial_tags`)
  over the per-DIMM partial sums — a constant amount of work per record.

Non-size-preserving ULPs (deflate) are rejected: those buffers must map to
a single channel instead (single-channel mode, flex mode, or
interleaving-aware allocation — see :mod:`repro.dram.address`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.llc import LLC
from repro.dram.address import AddressMapping, InterleaveMode
from repro.dram.commands import CACHELINE_SIZE, PAGE_SIZE
from repro.dram.memory_controller import MemoryController, TimingParams
from repro.dram.physical_memory import PhysicalMemory
from repro.core.compcpy import read_buffer, write_buffer
from repro.core.driver import SmartDIMMDriver
from repro.core.smartdimm import SmartDIMM, SmartDIMMConfig
from repro.core.dsa.base import UlpKind
from repro.core.dsa.tls_dsa import TLSOffloadContext, combine_partial_tags

TAG_SIZE = 16


@dataclass
class MultiChannelConfig:
    channels: int = 4
    memory_bytes: int = 64 * 1024 * 1024
    llc_bytes: int = 2 * 1024 * 1024
    rows: int = 1 << 9


class MultiChannelSession:
    """A server slice with one SmartDIMM per interleaved channel."""

    def __init__(self, config: MultiChannelConfig = None):
        self.config = config or MultiChannelConfig()
        self.mapping = AddressMapping(
            channels=self.config.channels,
            rows=self.config.rows,
            interleave=InterleaveMode.CACHELINE,
        )
        capacity = min(self.config.memory_bytes, self.mapping.total_capacity)
        self.memory = PhysicalMemory(capacity)
        self.devices = [
            SmartDIMM(self.memory, self.mapping, channel=channel,
                      config=SmartDIMMConfig(scratchpad_pages=256, config_slots=256))
            for channel in range(self.config.channels)
        ]
        self.mc = MemoryController(
            self.mapping, dict(enumerate(self.devices)), TimingParams()
        )
        self.llc = LLC(self.mc, size=self.config.llc_bytes)
        # One driver per channel speaks that device's MMIO (registration,
        # page reclaim); buffers come from the session's own allocator.
        self.drivers = [SmartDIMMDriver(device, self.mc) for device in self.devices]
        self._next_page = 16  # simple bump allocator; top page is MMIO

    # -- buffers ---------------------------------------------------------------------

    def alloc(self, length: int) -> int:
        """Reserve enough pages for `length` bytes; returns the base address."""
        pages = max(1, (length + PAGE_SIZE - 1) // PAGE_SIZE)
        base = self._next_page * PAGE_SIZE
        self._next_page += pages
        if (self._next_page + 1) * PAGE_SIZE > self.memory.size:
            raise MemoryError("multi-channel session out of pages")
        return base

    def write(self, address: int, data: bytes) -> None:
        """Application write through the LLC."""
        write_buffer(self.llc, address, data)

    def read(self, address: int, length: int) -> bytes:
        """Application read through the LLC."""
        return read_buffer(self.llc, address, length)

    # -- the striped TLS offload ----------------------------------------------------------

    def tls_encrypt(self, key: bytes, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt across all channels; returns ciphertext || tag.

        Every SmartDIMM receives its own configuration copy ("we address
        this requirement by writing the configuration data to each
        SmartDIMM during the source buffer registration step", Sec. V-D).
        """
        pages = max(1, (len(plaintext) + PAGE_SIZE - 1) // PAGE_SIZE)
        size = pages * PAGE_SIZE
        sbuf = self.alloc(size)
        dbuf = self.alloc(size)
        self.write(sbuf, plaintext + bytes(size - len(plaintext)))

        offloads = [
            driver.register_offload(
                UlpKind.TLS_ENCRYPT,
                TLSOffloadContext(key=key, nonce=nonce, record_length=len(plaintext),
                                  aad=aad, positional=True),
                sbuf, dbuf, pages)
            for driver in self.drivers
        ]

        # The CompCpy copy: every line's rdCAS routes to its channel's DIMM.
        self.llc.flush_range(sbuf, size)
        self.mc.fence()
        self.llc.copy_range(sbuf, dbuf, size // CACHELINE_SIZE)
        self.llc.flush_range(dbuf, size)
        self.mc.fence()

        ciphertext = self.read(dbuf, len(plaintext))
        # CPU combine of the per-DIMM partial tags (MMIO reads of the
        # config space in hardware; constant work per record).
        partials = [offload.context.partial_tag_sum for offload in offloads]
        tag = combine_partial_tags(key, nonce, len(plaintext), aad, partials)
        # Drain any scratchpad lines whose writebacks raced the DSA (S7):
        # each channel's driver reclaims its own device's lines.
        for page_number in range(dbuf // PAGE_SIZE, (dbuf + size) // PAGE_SIZE):
            for driver in self.drivers:
                driver.reclaim_page(page_number)
        return ciphertext + tag

    def deflate_page(self, data: bytes):
        """Rejected: non-size-preserving ULPs need single-channel mapping."""
        raise ValueError(
            "deflate is non-size-preserving: map its buffers to a single "
            "channel instead of fine-grain interleaving (Sec. V-D)"
        )
