"""TLS DSA: per-cacheline AES-GCM on the buffer device (Sec. V-A).

Division of labour mirrors Fig. 7:

* **CPU side** (captured in :class:`TLSOffloadContext`): the hash subkey H,
  the encrypted IV (EIV), and the AAD's GHASH prefix are computed on the
  CPU — each is one AES-NI-class instruction on an immediate — and shipped
  to the DIMM through MMIO config writes at registration.
* **DIMM side** (:class:`TLSDSA`): every 64-byte sbuf cacheline is XORed
  with its four counter-mode keystream blocks and folded into the partial
  authentication tag held in on-DIMM memory.

**Out-of-order cachelines.**  rdCAS commands can reach the DIMM out of
order, and GHASH is serial.  The paper's hardware breaks the dependency by
precomputing powers of H in strides of 4 so each cacheline's partial product
commutes; the test oracle ``weighted_tag`` of ``tests/ulp/aes_gcm_oracle.py``
computes that commutative formulation directly, and the test suite proves
it equals the serial GHASH for every arrival order.  The production path in
this model takes a run of lines per call (a single line is a run of one),
stages each ciphertext block at its record offset (the on-DIMM memory
already holds the ciphertext, so this is free in hardware) and runs one
wide GHASH pass at finalisation — functionally identical, and the natural
software rendering of the same idea (the hardware's H-power multiplier
array is what makes the arrival order irrelevant).  Positional
(multi-channel) contexts weight each block by its own power of H instead.

The output layout for a record of ``n`` payload bytes is ``n`` transformed
bytes at offset 0 followed by the 16-byte tag at offset ``n``.  Lines wholly
past ``n`` compute nothing; a partial final line is staged byte-wise and
stays NOT_COMPUTED until the tag completes it; the remainder of the
registered destination pages is zero-filled at finalisation so every
scratchpad line becomes recyclable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dram.commands import CACHELINE_SIZE
from repro.ulp.ctx_cache import cached_aesgcm
from repro.ulp.gcm import AESGCM, gf128_mul, xor_bytes
from repro.core.dsa.base import DSA, Offload, ScratchpadWriter

BLOCKS_PER_LINE = CACHELINE_SIZE // 16  # 4: hence the paper's stride-4 H powers

#: Keystream generation granularity: one batched CTR call covers this many
#: cachelines (16 KB -> 1024 AES blocks), amortising per-call overhead while
#: a record's rdCAS commands drain line by line.  The keystream bytes are
#: identical for any chunk size (the counter is derived from the absolute
#: block index), so this is purely a batching knob.
KEYSTREAM_CHUNK_LINES = 256


@dataclass
class TLSOffloadContext:
    """Everything the DSA needs, fixed at registration time.

    The modelled hardware footprint is 1 KB per source page (Sec. IV-C):
    round keys (176 B), EIV (16 B), stride-4 H powers (64 B), the AAD GHASH
    prefix (16 B), record geometry, and working registers.
    """

    key: bytes
    nonce: bytes
    record_length: int  # payload bytes to transform
    aad: bytes = b""
    decrypt: bool = False
    #: positional mode computes a pure weighted sum (block * H^position)
    #: instead of the Horner pipeline — required when this DIMM only owns a
    #: *stride subset* of the record's cachelines (fine-grain channel
    #: interleaving, Sec. V-D) and the CPU combines per-DIMM partials.
    positional: bool = False

    CONTEXT_BYTES_PER_PAGE = 1024

    # CPU-precomputed state (see __post_init__).
    gcm: AESGCM = field(init=False, repr=False)
    eiv: bytes = field(init=False, repr=False)

    def __post_init__(self):
        # One cipher context per traffic key, shared across every record of
        # the session (the paper registers it once via MMIO config writes).
        self.gcm = cached_aesgcm(self.key)
        self.eiv = self.gcm.encrypted_iv(self.nonce)
        self.ct_blocks = (self.record_length + 15) // 16
        self._keystream_chunks = {}
        self._positional_sum = 0
        self._folded_blocks = set()
        # GHASH accumulator, primed with the AAD prefix on the CPU (serial
        # mode only; positional partials exclude AAD — the combiner adds it).
        padded_aad = self.aad + bytes((16 - len(self.aad) % 16) % 16)
        self._tag_accumulator = 0
        if not self.positional:
            for offset in range(0, len(padded_aad), 16):
                block = int.from_bytes(padded_aad[offset : offset + 16], "big")
                self._tag_accumulator = self.gcm.mul_h.mul(self._tag_accumulator ^ block)
        # Ciphertext staging buffer (serial mode): out-of-order blocks land
        # at their index and one wide GHASH pass folds them at finalisation —
        # bit-identical to an incremental Horner because the buffer replays
        # the blocks in index order (this is the software rendering of the
        # hardware's H-power multiplier array, which makes arrival order
        # irrelevant; see module docstring).
        self._ct_buffer = bytearray(16 * self.ct_blocks) if not self.positional else None

    def _keystream_chunk(self, chunk_index: int) -> bytes:
        """Keystream chunk `chunk_index`, generated on first use: one
        batched CTR call per :data:`KEYSTREAM_CHUNK_LINES` lines, so
        out-of-order and strided line arrival still hits the wide path."""
        chunk = self._keystream_chunks.get(chunk_index)
        if chunk is None:
            first_line = chunk_index * KEYSTREAM_CHUNK_LINES
            covered = min(
                KEYSTREAM_CHUNK_LINES * CACHELINE_SIZE,
                max(self.record_length - first_line * CACHELINE_SIZE, 0),
            )
            chunk = self.gcm.keystream(
                self.nonce,
                # Round up to whole cachelines: partial tail lines still XOR
                # a full line of staged sbuf data.
                -(-covered // CACHELINE_SIZE) * CACHELINE_SIZE,
                start_block=first_line * BLOCKS_PER_LINE,
            )
            self._keystream_chunks[chunk_index] = chunk
        return chunk

    def keystream_run(self, first_line: int, count: int) -> bytes:
        """Keystream bytes for `count` consecutive cachelines of the record,
        sliced from the batch-generated chunks; at most two chunks are
        touched because a run never exceeds a DRAM page (64 lines)."""
        parts = []
        line = first_line
        remaining = count
        while remaining:
            chunk_index, line_in_chunk = divmod(line, KEYSTREAM_CHUNK_LINES)
            take = min(remaining, KEYSTREAM_CHUNK_LINES - line_in_chunk)
            chunk = self._keystream_chunk(chunk_index)
            start = line_in_chunk * CACHELINE_SIZE
            parts.append(chunk[start : start + take * CACHELINE_SIZE])
            line += take
            remaining -= take
        return parts[0] if len(parts) == 1 else b"".join(parts)

    def fold_ciphertext_run(self, first_block: int, data: bytes) -> None:
        """Fold a run of whole ciphertext blocks starting at block
        `first_block` (0-based) into the tag, in any order across runs.

        Serial mode stages the run at its record offset for one wide GHASH
        pass at finalisation; positional mode weights each block by its
        power of H so arbitrary (even strided) subsets commute.  Nothing
        folds when a block is out of range or already folded.
        """
        count = len(data) // 16
        if first_block < 0 or first_block + count > self.ct_blocks:
            raise ValueError("ciphertext run [%d, %d) out of range" % (first_block, first_block + count))
        span = range(first_block, first_block + count)
        if not self._folded_blocks.isdisjoint(span):
            for block_index in span:
                if block_index in self._folded_blocks:
                    raise ValueError("ciphertext block %d folded twice" % block_index)
        self._folded_blocks.update(span)
        if not self.positional:
            self._ct_buffer[16 * first_block : 16 * first_block + len(data)] = data
            return
        for k, block_index in enumerate(span):
            weight = self.gcm.h_power(self.ct_blocks + 1 - block_index)
            block = int.from_bytes(data[16 * k : 16 * k + 16], "big")
            self._positional_sum ^= gf128_mul(block, weight)

    @property
    def partial_tag_sum(self) -> int:
        """This DIMM's weighted contribution (MMIO-readable, Sec. V-D)."""
        if not self.positional:
            raise RuntimeError("partial sums only exist in positional mode")
        return self._positional_sum

    def final_tag(self) -> bytes:
        """GHASH the staged ciphertext, finish with the lengths block, and
        mask with EIV."""
        if self.positional:
            raise RuntimeError("positional contexts expose partial_tag_sum, not final_tag")
        if len(self._folded_blocks) != self.ct_blocks:
            raise RuntimeError(
                "tag finalised with %d/%d ciphertext blocks folded"
                % (len(self._folded_blocks), self.ct_blocks)
            )
        y = self.gcm.ghash(bytes(self._ct_buffer), self._tag_accumulator)
        lengths = (8 * len(self.aad)).to_bytes(8, "big") + (
            8 * self.record_length
        ).to_bytes(8, "big")
        s = self.gcm.mul_h.mul(y ^ int.from_bytes(lengths, "big"))
        return xor_bytes(s.to_bytes(16, "big"), self.eiv)


def combine_partial_tags(
    key: bytes, nonce: bytes, record_length: int, aad: bytes, partial_sums: list
) -> bytes:
    """CPU-side combiner for multi-channel TLS offload (Sec. V-D).

    Each SmartDIMM contributes the weighted sum of the ciphertext blocks it
    owns; the CPU adds the AAD prefix and lengths-block terms (both over
    data it already holds) and masks with EIV — a handful of GF multiplies,
    independent of the record size.
    """
    gcm = cached_aesgcm(key)
    ct_blocks = (record_length + 15) // 16
    aad_blocks = (len(aad) + 15) // 16
    total = aad_blocks + ct_blocks + 1
    accumulator = 0
    for partial in partial_sums:
        accumulator ^= partial
    padded_aad = aad + bytes((16 - len(aad) % 16) % 16)
    for j in range(aad_blocks):
        block = int.from_bytes(padded_aad[16 * j : 16 * j + 16], "big")
        accumulator ^= gf128_mul(block, gcm.h_power(total - j))
    lengths = (8 * len(aad)).to_bytes(8, "big") + (8 * record_length).to_bytes(8, "big")
    accumulator ^= gf128_mul(int.from_bytes(lengths, "big"), gcm.h_power(1))
    eiv = gcm.encrypted_iv(nonce)
    return xor_bytes(accumulator.to_bytes(16, "big"), eiv)


class TLSDSA(DSA):
    """AES-GCM (de/en)cryption engine fed by sbuf rdCAS bursts."""

    def process_run(
        self,
        offload: Offload,
        writer: ScratchpadWriter,
        first_global_line: int,
        data: bytes,
        count: int,
    ) -> None:
        """XOR `count` consecutive cachelines with their keystream blocks and
        fold their GHASH contributions.

        Only the run's lines that start before the record end compute:
        full lines land VALID, a partial final line is staged byte-wise and
        stays NOT_COMPUTED until :meth:`finalize`, and lines wholly in the
        zero-padded tail compute nothing.
        """
        context = offload.context
        n = context.record_length
        byte_offset = first_global_line * CACHELINE_SIZE
        usable = min(count * CACHELINE_SIZE, n - byte_offset)
        if usable <= 0:
            return
        keystream = context.keystream_run(first_global_line, -(-usable // CACHELINE_SIZE))
        output = xor_bytes(data, keystream)
        # GHASH folds over *ciphertext*: what we just produced when
        # encrypting, what arrived on the wire when decrypting; a partial
        # final block is zero-padded.
        ghash_input = (output if not context.decrypt else data)[:usable]
        context.fold_ciphertext_run(
            first_global_line * BLOCKS_PER_LINE,
            ghash_input.ljust(-(-usable // 16) * 16, b"\0"),
        )
        split = usable - usable % CACHELINE_SIZE  # the full lines' bytes
        if split:
            writer.write_line_run(first_global_line, output[:split], split // CACHELINE_SIZE)
        if usable > split:
            # Partial final line: stage the bytes now, mark VALID at
            # finalisation once the tag completes the line.
            writer.write_bytes(byte_offset + split, output[split:usable])

    def finalize(self, offload: Offload, writer: ScratchpadWriter) -> None:
        """Write the tag into the trailer (serial mode) and validate the
        padded tail lines."""
        context = offload.context
        if context.positional:
            # Multi-channel mode: this DIMM only holds a partial tag sum;
            # the CPU reads the per-DIMM partials and combines them
            # (combine_partial_tags), so no trailer is written here.
            writer.mark_all_remaining_valid()
            return
        # Encrypting: the tag completes the record trailer.  Decrypting: the
        # computed tag is deposited after the plaintext for the CPU to
        # compare against the received trailer (the DIMM has no fault
        # channel of its own).
        writer.write_bytes(context.record_length, context.final_tag())
        writer.mark_all_remaining_valid()
