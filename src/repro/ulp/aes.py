"""AES block cipher (FIPS-197), implemented from scratch.

This is the software ground truth for both the on-CPU baseline (which the
paper accelerates with AES-NI) and the SmartDIMM TLS DSA.  GCM's counter
mode needs only the forward cipher, so that is all this module computes.

The S-box and the T-tables are derived here from the AES field GF(2^8)
with the irreducible polynomial x^8 + x^4 + x^3 + x + 1 (0x11B).  One
block is four T-table lookups per column per round; large CTR batches
run the same tables as numpy gathers.  The round-primitive formulation
(SubBytes / ShiftRows / MixColumns) and the inverse cipher are the test
oracle in ``tests/ulp/aes_gcm_oracle.py``.
"""

from __future__ import annotations

import numpy as np

_SBOX = [0] * 256


def _gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) modulo 0x11B."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        carry = a & 0x80
        a = (a << 1) & 0xFF
        if carry:
            a ^= 0x1B
        b >>= 1
    return result


def _build_sbox() -> None:
    """Populate the S-box from first principles."""
    # Multiplicative inverses via exponentiation by generator 3.
    pow3 = [1] * 256
    log3 = [0] * 256
    value = 1
    for exponent in range(1, 256):
        value = _gf_mul(value, 3)
        pow3[exponent] = value
        log3[value] = exponent
    for byte in range(256):
        inv = 0 if byte == 0 else pow3[255 - log3[byte]]
        # Affine transformation.
        transformed = 0
        for bit in range(8):
            parity = (
                (inv >> bit)
                ^ (inv >> ((bit + 4) % 8))
                ^ (inv >> ((bit + 5) % 8))
                ^ (inv >> ((bit + 6) % 8))
                ^ (inv >> ((bit + 7) % 8))
                ^ (0x63 >> bit)
            ) & 1
            transformed |= parity << bit
        _SBOX[byte] = transformed


_build_sbox()

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8, 0xAB, 0x4D]

# T-tables: the classic 32-bit-word formulation fusing SubBytes, ShiftRows
# and MixColumns into four 256-entry lookups per column.  Built once from the
# S-box so the fast path stays derived-from-first-principles.
_T0 = [0] * 256
_T1 = [0] * 256
_T2 = [0] * 256
_T3 = [0] * 256


def _build_ttables() -> None:
    for byte in range(256):
        s = _SBOX[byte]
        s2 = _gf_mul(s, 2)
        s3 = _gf_mul(s, 3)
        word = (s2 << 24) | (s << 16) | (s << 8) | s3
        _T0[byte] = word
        _T1[byte] = ((word >> 8) | (word << 24)) & 0xFFFFFFFF
        _T2[byte] = ((word >> 16) | (word << 16)) & 0xFFFFFFFF
        _T3[byte] = ((word >> 24) | (word << 8)) & 0xFFFFFFFF


_build_ttables()

# Vector-form tables for the batched CTR path: the same T-tables and S-box,
# held as uint32 arrays so one fancy-indexing op substitutes a whole batch of
# scalar lookups.  Built once at import.
_NP_T0 = np.array(_T0, dtype=np.uint32)
_NP_T1 = np.array(_T1, dtype=np.uint32)
_NP_T2 = np.array(_T2, dtype=np.uint32)
_NP_T3 = np.array(_T3, dtype=np.uint32)
_NP_SBOX = np.array(_SBOX, dtype=np.uint32)

# Below this many blocks the per-call overhead of the vector path exceeds the
# scalar T-table loop; measured crossover is ~16-32 blocks on CPython.
CTR_BATCH_MIN_BLOCKS = 32


class AES:
    """AES-128/192/256 block cipher operating on 16-byte blocks.

    >>> AES(bytes(range(16))).encrypt_block(bytes.fromhex(
    ...     "00112233445566778899aabbccddeeff")).hex()
    '69c4e0d86a7b0430d8cdb78070b4c55a'
    """

    BLOCK_SIZE = 16

    def __init__(self, key: bytes):
        if len(key) not in (16, 24, 32):
            raise ValueError("AES key must be 16, 24, or 32 bytes, got %d" % len(key))
        self.key = bytes(key)
        self.rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key(self.key)
        # Word-form round keys for the T-table fast path.
        self._round_key_words = [
            [
                int.from_bytes(bytes(rk[4 * c : 4 * c + 4]), "big")
                for c in range(4)
            ]
            for rk in self._round_keys
        ]

    # -- key schedule -------------------------------------------------------

    def _expand_key(self, key: bytes) -> list:
        """Expand the cipher key into (rounds + 1) 16-byte round keys."""
        nk = len(key) // 4
        words = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
        total_words = 4 * (self.rounds + 1)
        for i in range(nk, total_words):
            word = list(words[i - 1])
            if i % nk == 0:
                word = word[1:] + word[:1]
                word = [_SBOX[b] for b in word]
                word[0] ^= _RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                word = [_SBOX[b] for b in word]
            words.append([w ^ p for w, p in zip(word, words[i - nk])])
        round_keys = []
        for r in range(self.rounds + 1):
            flat = []
            for w in words[4 * r : 4 * r + 4]:
                flat.extend(w)
            round_keys.append(flat)
        return round_keys

    # -- block operations ---------------------------------------------------

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt a single 16-byte block (T-table fast path)."""
        if len(block) != self.BLOCK_SIZE:
            raise ValueError("AES block must be 16 bytes, got %d" % len(block))
        rk = self._round_key_words
        x0 = int.from_bytes(block[0:4], "big") ^ rk[0][0]
        x1 = int.from_bytes(block[4:8], "big") ^ rk[0][1]
        x2 = int.from_bytes(block[8:12], "big") ^ rk[0][2]
        x3 = int.from_bytes(block[12:16], "big") ^ rk[0][3]
        for r in range(1, self.rounds):
            k = rk[r]
            y0 = (_T0[x0 >> 24] ^ _T1[(x1 >> 16) & 0xFF] ^ _T2[(x2 >> 8) & 0xFF]
                  ^ _T3[x3 & 0xFF] ^ k[0])
            y1 = (_T0[x1 >> 24] ^ _T1[(x2 >> 16) & 0xFF] ^ _T2[(x3 >> 8) & 0xFF]
                  ^ _T3[x0 & 0xFF] ^ k[1])
            y2 = (_T0[x2 >> 24] ^ _T1[(x3 >> 16) & 0xFF] ^ _T2[(x0 >> 8) & 0xFF]
                  ^ _T3[x1 & 0xFF] ^ k[2])
            y3 = (_T0[x3 >> 24] ^ _T1[(x0 >> 16) & 0xFF] ^ _T2[(x1 >> 8) & 0xFF]
                  ^ _T3[x2 & 0xFF] ^ k[3])
            x0, x1, x2, x3 = y0, y1, y2, y3
        k = rk[self.rounds]
        out0 = ((_SBOX[x0 >> 24] << 24) | (_SBOX[(x1 >> 16) & 0xFF] << 16)
                | (_SBOX[(x2 >> 8) & 0xFF] << 8) | _SBOX[x3 & 0xFF]) ^ k[0]
        out1 = ((_SBOX[x1 >> 24] << 24) | (_SBOX[(x2 >> 16) & 0xFF] << 16)
                | (_SBOX[(x3 >> 8) & 0xFF] << 8) | _SBOX[x0 & 0xFF]) ^ k[1]
        out2 = ((_SBOX[x2 >> 24] << 24) | (_SBOX[(x3 >> 16) & 0xFF] << 16)
                | (_SBOX[(x0 >> 8) & 0xFF] << 8) | _SBOX[x1 & 0xFF]) ^ k[2]
        out3 = ((_SBOX[x3 >> 24] << 24) | (_SBOX[(x0 >> 16) & 0xFF] << 16)
                | (_SBOX[(x1 >> 8) & 0xFF] << 8) | _SBOX[x2 & 0xFF]) ^ k[3]
        return (
            out0.to_bytes(4, "big") + out1.to_bytes(4, "big")
            + out2.to_bytes(4, "big") + out3.to_bytes(4, "big")
        )

    def encrypt_ctr_blocks(self, prefix: bytes, start_counter: int, nblocks: int) -> bytes:
        """Keystream for `nblocks` counter blocks ``prefix || counter``.

        Counter values are ``(start_counter + i) mod 2^32`` — GCM's inc32
        semantics.  Large batches run through the vectorised T-table path
        (one numpy gather per table per round for the whole batch); small
        batches take the scalar loop.
        Output is bit-identical either way.
        """
        if len(prefix) != 12:
            raise ValueError("counter prefix must be 12 bytes, got %d" % len(prefix))
        if nblocks <= 0:
            return b""
        if nblocks < CTR_BATCH_MIN_BLOCKS:
            out = bytearray()
            for i in range(nblocks):
                counter = (start_counter + i) & 0xFFFFFFFF
                out += self.encrypt_block(prefix + counter.to_bytes(4, "big"))
            return bytes(out)
        return self._encrypt_ctr_vector(prefix, start_counter, nblocks)

    def _encrypt_ctr_vector(self, prefix: bytes, start_counter: int, nblocks: int) -> bytes:
        rk = self._round_key_words
        w0 = int.from_bytes(prefix[0:4], "big")
        w1 = int.from_bytes(prefix[4:8], "big")
        w2 = int.from_bytes(prefix[8:12], "big")
        counters = (
            (np.arange(nblocks, dtype=np.uint64) + (start_counter & 0xFFFFFFFF))
            & 0xFFFFFFFF
        ).astype(np.uint32)
        x0 = np.full(nblocks, (w0 ^ rk[0][0]) & 0xFFFFFFFF, dtype=np.uint32)
        x1 = np.full(nblocks, (w1 ^ rk[0][1]) & 0xFFFFFFFF, dtype=np.uint32)
        x2 = np.full(nblocks, (w2 ^ rk[0][2]) & 0xFFFFFFFF, dtype=np.uint32)
        x3 = counters ^ np.uint32(rk[0][3])
        for r in range(1, self.rounds):
            k = rk[r]
            y0 = (_NP_T0[x0 >> 24] ^ _NP_T1[(x1 >> 16) & 0xFF]
                  ^ _NP_T2[(x2 >> 8) & 0xFF] ^ _NP_T3[x3 & 0xFF] ^ np.uint32(k[0]))
            y1 = (_NP_T0[x1 >> 24] ^ _NP_T1[(x2 >> 16) & 0xFF]
                  ^ _NP_T2[(x3 >> 8) & 0xFF] ^ _NP_T3[x0 & 0xFF] ^ np.uint32(k[1]))
            y2 = (_NP_T0[x2 >> 24] ^ _NP_T1[(x3 >> 16) & 0xFF]
                  ^ _NP_T2[(x0 >> 8) & 0xFF] ^ _NP_T3[x1 & 0xFF] ^ np.uint32(k[2]))
            y3 = (_NP_T0[x3 >> 24] ^ _NP_T1[(x0 >> 16) & 0xFF]
                  ^ _NP_T2[(x1 >> 8) & 0xFF] ^ _NP_T3[x2 & 0xFF] ^ np.uint32(k[3]))
            x0, x1, x2, x3 = y0, y1, y2, y3
        k = rk[self.rounds]
        out = np.empty((nblocks, 4), dtype=np.uint32)
        out[:, 0] = ((_NP_SBOX[x0 >> 24] << 24) | (_NP_SBOX[(x1 >> 16) & 0xFF] << 16)
                     | (_NP_SBOX[(x2 >> 8) & 0xFF] << 8) | _NP_SBOX[x3 & 0xFF]) ^ np.uint32(k[0])
        out[:, 1] = ((_NP_SBOX[x1 >> 24] << 24) | (_NP_SBOX[(x2 >> 16) & 0xFF] << 16)
                     | (_NP_SBOX[(x3 >> 8) & 0xFF] << 8) | _NP_SBOX[x0 & 0xFF]) ^ np.uint32(k[1])
        out[:, 2] = ((_NP_SBOX[x2 >> 24] << 24) | (_NP_SBOX[(x3 >> 16) & 0xFF] << 16)
                     | (_NP_SBOX[(x0 >> 8) & 0xFF] << 8) | _NP_SBOX[x1 & 0xFF]) ^ np.uint32(k[2])
        out[:, 3] = ((_NP_SBOX[x3 >> 24] << 24) | (_NP_SBOX[(x0 >> 16) & 0xFF] << 16)
                     | (_NP_SBOX[(x1 >> 8) & 0xFF] << 8) | _NP_SBOX[x2 & 0xFF]) ^ np.uint32(k[3])
        return out.astype(">u4").tobytes()
