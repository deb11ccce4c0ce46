"""AES-GCM authenticated encryption (NIST SP 800-38D), from scratch.

Two consumers share this module:

* The CPU baseline (:mod:`repro.accel.cpu_onload`) encrypts whole TLS records
  through :class:`AESGCM`.
* The SmartDIMM TLS DSA (:mod:`repro.core.dsa.tls_dsa`) processes records one
  64-byte cacheline at a time, possibly out of order.  To support that, this
  module exposes the keystream block generator and the *stride-4 H-power*
  GHASH formulation the paper describes in Sec. V-A: precomputing H^i lets
  partial authentication tags for distinct cachelines be combined without a
  serial dependency chain.

All arithmetic is in GF(2^128) with the GCM polynomial
x^128 + x^7 + x^2 + x + 1, bit-reflected per the spec ("rightmost" bit is the
highest power).

**Fast path.**  Per-record work is batched so the functional datapath keeps
up with the analytical server model (see README "Performance"):

* :meth:`AESGCM.keystream` computes J0 once per record and generates all
  counter blocks in one batched call (:meth:`repro.ulp.aes.AES.encrypt_ctr_blocks`,
  numpy-vectorised for large records, scalar otherwise).
* :class:`GF128Multiplier` optionally widens its 4-bit window tables to
  byte-wide tables (16 lookups per multiply instead of 32), and large GHASH
  inputs run through a lane-parallel Horner in H^L (`_VEC_LANES` lanes) whose
  per-step multiply is a vectorised table gather.
* XOR runs wide-word over whole records (:func:`xor_bytes`) instead of
  per byte.

Every fast path is bit-identical to the scalar reference; the
``*_reference`` methods preserve the original from-scratch formulation for
equivalence tests and the perf-regression baseline in ``benchmarks/perf``.
"""

from __future__ import annotations

import numpy as np

from repro.ulp.aes import AES

# The reduction polynomial R = 11100001 || 0^120, as an integer with bit 0
# being the *leftmost* (most significant in GCM's reflected convention).
_R = 0xE1000000000000000000000000000000

# The multiplicative identity of GF(2^128) in GCM bit order.
_IDENTITY = 1 << 127

# Lane count for the vectorised bulk-GHASH Horner (a power of two; each bulk
# step multiplies every lane accumulator by H^_VEC_LANES at once).
_VEC_LANES = 512
# Minimum GHASH input (in blocks) before the lane-parallel path pays for its
# per-call setup; below this the byte-table scalar Horner wins.
_VEC_MIN_BLOCKS = 2 * _VEC_LANES


def gf128_mul(x: int, y: int) -> int:
    """Multiply two elements of GF(2^128) in GCM bit order.

    Operands and result are 128-bit integers whose most significant bit is
    the GCM "bit 0" (coefficient of x^0).
    """
    z = 0
    v = x
    for i in range(128):
        if (y >> (127 - i)) & 1:
            z ^= v
        if v & 1:
            v = (v >> 1) ^ _R
        else:
            v >>= 1
    return z


def _block_to_int(block: bytes) -> int:
    return int.from_bytes(block, "big")


def _int_to_block(value: int) -> bytes:
    return value.to_bytes(16, "big")


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two byte strings, truncated to the shorter operand.

    One fixed-width integer XOR replaces the per-byte generator the seed
    implementation used — ~50x faster on whole TLS records.
    """
    n = min(len(a), len(b))
    if n == 0:
        return b""
    if len(a) != n:
        a = a[:n]
    if len(b) != n:
        b = b[:n]
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(n, "big")


def _bit_products(constant: int) -> list:
    """bit_products[i] = constant * x^i (GCM bit order, MSB-side bit i)."""
    products = [0] * 128
    value = constant
    products[0] = value
    for i in range(1, 128):
        if value & 1:
            value = (value >> 1) ^ _R
        else:
            value >>= 1
        products[i] = value
    return products


class GF128Multiplier:
    """Precomputed multiply-by-constant in GF(2^128).

    Models the GF Multiplier block of the TLS DSA (Fig. 7): the hardware
    pipelines a fixed-operand multiplier; we precompute a 4-bit windowed
    table so every `mul` is 32 table lookups + XORs.  The table itself is
    built from 128 cheap shift-reduce steps, mirroring how the hardware's
    LFSR-style reduction network is derived.

    With ``byte_tables=True`` the window widens to 8 bits (16 lookups per
    multiply) — the right trade once the multiplier is cached per session
    key and reused across records (see :mod:`repro.ulp.ctx_cache`).
    """

    def __init__(self, constant: int, byte_tables: bool = False):
        self.constant = constant
        bit_products = _bit_products(constant)
        self._bit_products = bit_products
        # Nibble tables: table[pos][nibble] for the nibble at bit offset
        # 4*pos from the MSB.
        self._tables = []
        for pos in range(32):
            row = [0] * 16
            base = 4 * pos
            for nibble in range(1, 16):
                acc = 0
                for bit in range(4):
                    if (nibble >> (3 - bit)) & 1:
                        acc ^= bit_products[base + bit]
                row[nibble] = acc
            self._tables.append(row)
        self._byte_tables = None
        if byte_tables:
            self.build_byte_tables()

    def build_byte_tables(self) -> None:
        """Widen the window tables to 8 bits (amortised once per key)."""
        if self._byte_tables is not None:
            return
        bit_products = self._bit_products
        tables = []
        for pos in range(16):
            row = [0] * 256
            base = 8 * pos
            for value in range(1, 256):
                low = value & (-value)
                # MSB-first bit index of the lowest set bit of `value`.
                row[value] = row[value ^ low] ^ bit_products[base + 7 - (low.bit_length() - 1)]
            tables.append(row)
        self._byte_tables = tables

    def mul(self, x: int) -> int:
        """Return x * constant in GF(2^128)."""
        t = self._byte_tables
        if t is not None:
            t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15 = t
            return (
                t0[(x >> 120) & 0xFF] ^ t1[(x >> 112) & 0xFF]
                ^ t2[(x >> 104) & 0xFF] ^ t3[(x >> 96) & 0xFF]
                ^ t4[(x >> 88) & 0xFF] ^ t5[(x >> 80) & 0xFF]
                ^ t6[(x >> 72) & 0xFF] ^ t7[(x >> 64) & 0xFF]
                ^ t8[(x >> 56) & 0xFF] ^ t9[(x >> 48) & 0xFF]
                ^ t10[(x >> 40) & 0xFF] ^ t11[(x >> 32) & 0xFF]
                ^ t12[(x >> 24) & 0xFF] ^ t13[(x >> 16) & 0xFF]
                ^ t14[(x >> 8) & 0xFF] ^ t15[x & 0xFF]
            )
        result = 0
        tables = self._tables
        for pos in range(32):
            nibble = (x >> (124 - 4 * pos)) & 0xF
            if nibble:
                result ^= tables[pos][nibble]
        return result


def ghash(h: bytes, data: bytes) -> bytes:
    """GHASH of `data` (zero-padded to a 16-byte multiple) under hash key `h`."""
    return _int_to_block(ghash_int(GF128Multiplier(_block_to_int(h)), data))


def ghash_int(mul_h: GF128Multiplier, data: bytes, y: int = 0) -> int:
    """Horner-form GHASH with a prepared multiplier; returns the accumulator.

    Walks the input through a memoryview so full blocks are converted
    in place without intermediate slice copies; a short final block is
    zero-padded per the spec.
    """
    mul = mul_h.mul
    n = len(data)
    full = n - (n % 16)
    view = memoryview(data)
    from_bytes = int.from_bytes
    for offset in range(0, full, 16):
        y = mul(y ^ from_bytes(view[offset : offset + 16], "big"))
    if full != n:
        tail = from_bytes(view[full:], "big") << (8 * (16 - (n - full)))
        y = mul(y ^ tail)
    return y


def _inc32(counter_block: bytes) -> bytes:
    """Increment the rightmost 32 bits of a 16-byte counter block."""
    prefix, counter = counter_block[:12], int.from_bytes(counter_block[12:], "big")
    return prefix + ((counter + 1) & 0xFFFFFFFF).to_bytes(4, "big")


class AESGCM:
    """AES-GCM AEAD for a fixed key.

    Construction prepares the whole per-key context once — AES key schedule,
    hash subkey H, byte-wide GF multiplier tables — mirroring the paper's
    config-memory TLS context that is shipped to the DIMM a single time via
    MMIO.  Reuse instances across records (see :mod:`repro.ulp.ctx_cache`);
    everything per-record (J0, EIV, keystream, tag) is then batched work.

    >>> gcm = AESGCM(bytes(16))
    >>> ct, tag = gcm.encrypt(bytes(12), b"hello world", b"aad")
    >>> gcm.decrypt(bytes(12), ct, b"aad", tag)
    b'hello world'
    """

    TAG_SIZE = 16

    #: number of J0 blocks remembered across calls (per-record IVs of
    #: interleaved offloads each hit their entry).
    J0_CACHE_ENTRIES = 8

    def __init__(self, key: bytes):
        self._aes = AES(key)
        # Hash subkey H = E_K(0^128); the paper computes this on the CPU with
        # one AES-NI invocation and ships it to the DIMM via MMIO.
        self.h = self._aes.encrypt_block(bytes(16))
        self._h_int = _block_to_int(self.h)
        self.mul_h = GF128Multiplier(self._h_int, byte_tables=True)
        self._h_power_list = [self._h_int]  # H^1, H^2, ... grown on demand
        self._j0_cache = {}
        self._vec_tables = None  # lazy (32, 16, 4) uint32 table for H^_VEC_LANES
        self._ref_mul = None  # lazy nibble-window multiplier for *_reference

    # -- building blocks used by the DSA ------------------------------------

    def j0(self, iv: bytes) -> bytes:
        """Pre-counter block J0 for a given IV (memoised per IV)."""
        iv = bytes(iv)
        cached = self._j0_cache.get(iv)
        if cached is None:
            cached = self._compute_j0(iv)
            if len(self._j0_cache) >= self.J0_CACHE_ENTRIES:
                self._j0_cache.pop(next(iter(self._j0_cache)))
            self._j0_cache[iv] = cached
        return cached

    def _compute_j0(self, iv: bytes) -> bytes:
        if len(iv) == 12:
            return iv + b"\x00\x00\x00\x01"
        length_block = bytes(8) + (8 * len(iv)).to_bytes(8, "big")
        padded = iv + bytes((16 - len(iv) % 16) % 16) + length_block
        return _int_to_block(ghash_int(self.mul_h, padded))

    def encrypted_iv(self, iv: bytes) -> bytes:
        """EIV = E_K(J0), the block masking the final tag (CPU-computed)."""
        return self._aes.encrypt_block(self.j0(iv))

    def h_power(self, exponent: int) -> int:
        """H^exponent as an integer, memoised per key.

        Exponent 0 returns the multiplicative identity.  The shared power
        list serves every positional-GHASH consumer (TLS DSA stride-4
        folding, multi-channel partial-tag weighting) so powers are computed
        once per key instead of once per record.
        """
        if exponent < 0:
            raise ValueError("negative exponent")
        if exponent == 0:
            return _IDENTITY
        powers = self._h_power_list
        if exponent > len(powers):
            mul = self.mul_h.mul
            while len(powers) < exponent:
                powers.append(mul(powers[-1]))
        return powers[exponent - 1]

    def keystream_block(self, iv: bytes, block_index: int) -> bytes:
        """The keystream block XORed against plaintext block `block_index`.

        Block 0 of the message stream corresponds to counter J0 + 1.  Random
        access here is what makes AES-GCM "incrementally computable"
        (Observation 4): any byte range can be (de/en)crypted independently.
        """
        j0 = self.j0(iv)
        counter = int.from_bytes(j0[12:], "big")
        counter = (counter + 1 + block_index) & 0xFFFFFFFF
        return self._aes.encrypt_block(j0[:12] + counter.to_bytes(4, "big"))

    def keystream(self, iv: bytes, length: int, start_block: int = 0) -> bytes:
        """`length` bytes of keystream starting at block `start_block`.

        J0 is computed once per call (and memoised per IV), then every
        counter block is generated in one batched
        :meth:`~repro.ulp.aes.AES.encrypt_ctr_blocks` invocation — the seed
        implementation recomputed J0 and dispatched one block-cipher call
        per 16-byte block.
        """
        if length <= 0:
            return b""
        nblocks = (length + 15) // 16
        j0 = self.j0(iv)
        base = int.from_bytes(j0[12:], "big")
        stream = self._aes.encrypt_ctr_blocks(
            j0[:12], (base + 1 + start_block) & 0xFFFFFFFF, nblocks
        )
        return stream[:length] if len(stream) != length else stream

    @staticmethod
    def _lengths_block(aad_len: int, ct_len: int) -> bytes:
        return (8 * aad_len).to_bytes(8, "big") + (8 * ct_len).to_bytes(8, "big")

    def tag(self, iv: bytes, ciphertext: bytes, aad: bytes, eiv: bytes = None) -> bytes:
        """Authentication tag over (aad, ciphertext).

        Callers that already hold the record context can pass the
        precomputed ``eiv`` (= :meth:`encrypted_iv`) to skip the redundant
        J0 + block-cipher recomputation the seed performed on every call.
        """
        y = self._ghash_bulk(aad) if aad else 0
        y = self._ghash_bulk(ciphertext, y) if ciphertext else y
        lengths = self._lengths_block(len(aad), len(ciphertext))
        y = self.mul_h.mul(y ^ _block_to_int(lengths))
        if eiv is None:
            eiv = self.encrypted_iv(iv)
        return xor_bytes(_int_to_block(y), eiv)

    # -- bulk GHASH ----------------------------------------------------------

    def ghash(self, data: bytes, y: int = 0) -> int:
        """Public bulk-GHASH entry point (accumulator in, accumulator out)."""
        return self._ghash_bulk(data, y)

    def _ghash_bulk(self, data: bytes, y: int = 0) -> int:
        """GHASH `data` (zero-padded to a block) into accumulator `y`.

        Large inputs run a lane-parallel Horner: split the block stream into
        ``_VEC_LANES`` interleaved lanes, advance every lane accumulator by
        H^lanes per step with one vectorised table gather, then combine the
        lanes with a scalar Horner in H.  Bit-identical to the serial form
        because the weighted per-lane products commute — the same algebra
        that lets the TLS DSA fold out-of-order cachelines (Sec. V-A).
        """
        nblocks = (len(data) + 15) // 16
        if nblocks < _VEC_MIN_BLOCKS:
            return ghash_int(self.mul_h, data, y)
        lanes = _VEC_LANES
        steps = nblocks // lanes
        prefix_blocks = nblocks - steps * lanes
        y = ghash_int(self.mul_h, data[: 16 * prefix_blocks], y)
        body = bytes(data[16 * prefix_blocks :])
        if len(body) % 16:
            body = body + bytes(16 - len(body) % 16)
        arr = (
            np.frombuffer(body, dtype=">u4")
            .astype(np.uint32)
            .reshape(steps, lanes, 4)
        )
        acc = arr[0].copy()
        if y:
            acc[0] ^= np.array(
                [(y >> 96) & 0xFFFFFFFF, (y >> 64) & 0xFFFFFFFF,
                 (y >> 32) & 0xFFFFFFFF, y & 0xFFFFFFFF],
                dtype=np.uint32,
            )
        table = self._vec_mul_tables()
        for s in range(1, steps):
            z = np.zeros_like(acc)
            for pos in range(16):
                limb = acc[:, pos >> 2]
                idx = (limb >> np.uint32(24 - 8 * (pos & 3))) & np.uint32(0xFF)
                z ^= table[pos, idx]
            acc = z ^ arr[s]
        # Lane combine: y = sum_j acc_j * H^(lanes - j), Horner in H.
        combined = acc.astype(">u4").tobytes()
        mul = self.mul_h.mul
        from_bytes = int.from_bytes
        y = 0
        for offset in range(0, 16 * lanes, 16):
            y = mul(y ^ from_bytes(combined[offset : offset + 16], "big"))
        return y

    def _vec_mul_tables(self):
        """The (16, 256, 4)-uint32 byte tables of H^_VEC_LANES, built once."""
        if self._vec_tables is None:
            products = _bit_products(self.h_power(_VEC_LANES))
            rows = bytearray()
            for pos in range(16):
                row = [0] * 256
                base = 8 * pos
                for value in range(1, 256):
                    low = value & (-value)
                    row[value] = row[value ^ low] ^ products[base + 7 - (low.bit_length() - 1)]
                rows += b"".join(entry.to_bytes(16, "big") for entry in row)
            self._vec_tables = (
                np.frombuffer(bytes(rows), dtype=">u4")
                .astype(np.uint32)
                .reshape(16, 256, 4)
            )
        return self._vec_tables

    # -- whole-message AEAD --------------------------------------------------

    def encrypt(self, iv: bytes, plaintext: bytes, aad: bytes = b"", eiv: bytes = None) -> tuple:
        """Encrypt and authenticate; returns (ciphertext, tag).

        J0 is derived once for the whole record; pass a precomputed ``eiv``
        to also skip the EIV block-cipher call (the cached-EIV path used by
        :mod:`repro.ulp.tls`).
        """
        stream = self.keystream(iv, len(plaintext))
        ciphertext = xor_bytes(plaintext, stream)
        if eiv is None:
            eiv = self.encrypted_iv(iv)
        return ciphertext, self.tag(iv, ciphertext, aad, eiv=eiv)

    def decrypt(self, iv: bytes, ciphertext: bytes, aad: bytes, tag: bytes,
                eiv: bytes = None) -> bytes:
        """Verify the tag and decrypt; raises ValueError on tag mismatch."""
        expected = self.tag(iv, ciphertext, aad, eiv=eiv)
        if not _constant_time_eq(expected, tag):
            raise ValueError("GCM authentication tag mismatch")
        stream = self.keystream(iv, len(ciphertext))
        return xor_bytes(ciphertext, stream)

    # -- seed-fidelity reference path ----------------------------------------

    def _reference_mul(self) -> GF128Multiplier:
        if self._ref_mul is None:
            self._ref_mul = GF128Multiplier(self._h_int)
        return self._ref_mul

    def keystream_reference(self, iv: bytes, length: int, start_block: int = 0) -> bytes:
        """Scalar keystream exactly as the seed computed it: J0 rebuilt and
        one block-cipher call dispatched per 16-byte block.  Oracle of
        ``test_keystream_matches_reference`` in ``tests/ulp``."""
        blocks_needed = (length + 15) // 16
        out = bytearray()
        for i in range(blocks_needed):
            j0 = self._compute_j0(iv)
            counter = int.from_bytes(j0[12:], "big")
            counter = (counter + 1 + start_block + i) & 0xFFFFFFFF
            out.extend(self._aes.encrypt_block(j0[:12] + counter.to_bytes(4, "big")))
        return bytes(out[:length])

    def tag_reference(self, iv: bytes, ciphertext: bytes, aad: bytes) -> bytes:
        """Serial nibble-window GHASH over one concatenated padded buffer
        (the seed formulation), with per-byte EIV masking.  Oracle of the
        ``tests/ulp`` GCM equivalence tests via the two methods below."""
        padded = (
            aad
            + bytes((16 - len(aad) % 16) % 16)
            + ciphertext
            + bytes((16 - len(ciphertext) % 16) % 16)
            + self._lengths_block(len(aad), len(ciphertext))
        )
        s = _int_to_block(ghash_int(self._reference_mul(), padded))
        eiv = self._aes.encrypt_block(self._compute_j0(iv))
        return bytes(a ^ b for a, b in zip(s, eiv))

    def encrypt_reference(self, iv: bytes, plaintext: bytes, aad: bytes = b"") -> tuple:
        """The seed encrypt datapath (per-block J0, per-byte XOR, serial
        GHASH); the oracle of ``test_encrypt_matches_reference`` in
        ``tests/ulp`` and the "before" measurement of
        ``benchmarks/perf/datapath_bench.py``."""
        stream = self.keystream_reference(iv, len(plaintext))
        ciphertext = bytes(p ^ s for p, s in zip(plaintext, stream))
        return ciphertext, self.tag_reference(iv, ciphertext, aad)

    def decrypt_reference(self, iv: bytes, ciphertext: bytes, aad: bytes, tag: bytes) -> bytes:
        """The seed decrypt datapath; raises ValueError on tag mismatch.
        Oracle of ``test_decrypt_round_trip_and_reference`` in
        ``tests/ulp``."""
        expected = self.tag_reference(iv, ciphertext, aad)
        if not _constant_time_eq(expected, tag):
            raise ValueError("GCM authentication tag mismatch")
        stream = self.keystream_reference(iv, len(ciphertext))
        return bytes(c ^ s for c, s in zip(ciphertext, stream))


def _constant_time_eq(a: bytes, b: bytes) -> bool:
    if len(a) != len(b):
        return False
    # One fixed-width integer compare: both operands are equal-length byte
    # strings, so the XOR is data-independent work (no short-circuit on the
    # first differing byte as a bytes == would allow).
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")) == 0
