"""Test oracles for AES, GHASH and AES-GCM: the from-scratch formulations.

``repro.ulp`` keeps one implementation of each computation, the fast one
(T-table AES, batched CTR keystream, byte-table and lane-parallel
GHASH).  This module keeps the formulations it replaced, for the
equivalence tests in ``tests/ulp`` and ``tests/core/test_tls_dsa.py``
only:

* AES as the FIPS-197 round primitives (SubBytes, ShiftRows, MixColumns,
  AddRoundKey), forward and inverse;
* AES-GCM as the seed computed it: J0 rebuilt and one block-cipher call
  per 16-byte block, per-byte XOR, and a serial GHASH whose multiplier is
  its own 4-bit window tables, not the production byte tables;
* the stride-4 commutative GHASH of the TLS DSA (Sec. V-A): a sum of
  block * H^(total - position) with H powers by square-and-multiply.
"""

from repro.ulp.aes import _SBOX, _gf_mul
from repro.ulp.gcm import _constant_time_eq, _bit_products, gf128_mul

INV_SBOX = [0] * 256
for _byte, _value in enumerate(_SBOX):
    INV_SBOX[_value] = _byte

# -- AES round primitives (state is column-major: state[4*c + r]) -------------


def _add_round_key(state, round_key):
    return [s ^ k for s, k in zip(state, round_key)]


def _sub_bytes(state, box):
    return [box[b] for b in state]


def _shift_rows(state):
    out = list(state)
    for row in range(1, 4):
        for col in range(4):
            out[4 * col + row] = state[4 * ((col + row) % 4) + row]
    return out


def _inv_shift_rows(state):
    out = list(state)
    for row in range(1, 4):
        for col in range(4):
            out[4 * ((col + row) % 4) + row] = state[4 * col + row]
    return out


def _mix(state, coefficients):
    """MixColumns with the circulant `coefficients` (2, 3, 1, 1 forward;
    14, 11, 13, 9 inverse)."""
    out = [0] * 16
    for col in range(4):
        a = state[4 * col : 4 * col + 4]
        for row in range(4):
            value = 0
            for k in range(4):
                value ^= _gf_mul(a[k], coefficients[(k - row) % 4])
            out[4 * col + row] = value
    return out


def _check_block(block):
    if len(block) != 16:
        raise ValueError("AES block must be 16 bytes, got %d" % len(block))


def encrypt_block(aes, block: bytes) -> bytes:
    """FIPS-197 encryption of one block under `aes`'s round keys."""
    _check_block(block)
    keys = aes._round_keys
    state = _add_round_key(list(block), keys[0])
    for r in range(1, aes.rounds):
        state = _mix(_shift_rows(_sub_bytes(state, _SBOX)), (2, 3, 1, 1))
        state = _add_round_key(state, keys[r])
    state = _shift_rows(_sub_bytes(state, _SBOX))
    return bytes(_add_round_key(state, keys[aes.rounds]))


def decrypt_block(aes, block: bytes) -> bytes:
    """FIPS-197 inverse cipher of one block under `aes`'s round keys."""
    _check_block(block)
    keys = aes._round_keys
    state = _add_round_key(list(block), keys[aes.rounds])
    for r in range(aes.rounds - 1, 0, -1):
        state = _sub_bytes(_inv_shift_rows(state), INV_SBOX)
        state = _mix(_add_round_key(state, keys[r]), (14, 11, 13, 9))
    state = _sub_bytes(_inv_shift_rows(state), INV_SBOX)
    return bytes(_add_round_key(state, keys[0]))


# -- GHASH and AES-GCM ----------------------------------------------------------


class NibbleMultiplier:
    """Multiply-by-constant in GF(2^128) over 4-bit window tables: 32
    lookups per multiply, against the 16 of the production byte tables."""

    def __init__(self, constant: int):
        bit_products = _bit_products(constant)
        self._tables = []
        for pos in range(32):
            row = [0] * 16
            for nibble in range(1, 16):
                for bit in range(4):
                    if (nibble >> (3 - bit)) & 1:
                        row[nibble] ^= bit_products[4 * pos + bit]
            self._tables.append(row)

    def mul(self, x: int) -> int:
        result = 0
        for pos, row in enumerate(self._tables):
            result ^= row[(x >> (124 - 4 * pos)) & 0xF]
        return result


def ghash(h: int, data: bytes) -> int:
    """Serial Horner GHASH of `data`, zero-padded to a block."""
    mul = NibbleMultiplier(h).mul
    data = data + bytes(-len(data) % 16)
    y = 0
    for offset in range(0, len(data), 16):
        y = mul(y ^ int.from_bytes(data[offset : offset + 16], "big"))
    return y


def keystream(gcm, iv: bytes, length: int, start_block: int = 0) -> bytes:
    """J0 rebuilt and one block-cipher call dispatched per 16-byte block."""
    out = bytearray()
    for i in range((length + 15) // 16):
        j0 = gcm._compute_j0(iv)
        counter = (int.from_bytes(j0[12:], "big") + 1 + start_block + i) & 0xFFFFFFFF
        out += gcm._aes.encrypt_block(j0[:12] + counter.to_bytes(4, "big"))
    return bytes(out[:length])


def tag(gcm, iv: bytes, ciphertext: bytes, aad: bytes) -> bytes:
    """Serial GHASH over one concatenated padded buffer, masked byte by
    byte with E_K(J0)."""
    padded = (aad + bytes(-len(aad) % 16) + ciphertext + bytes(-len(ciphertext) % 16)
              + gcm._lengths_block(len(aad), len(ciphertext)))
    s = ghash(gcm._h_int, padded).to_bytes(16, "big")
    eiv = gcm._aes.encrypt_block(gcm._compute_j0(iv))
    return bytes(a ^ b for a, b in zip(s, eiv))


def encrypt(gcm, iv: bytes, plaintext: bytes, aad: bytes = b"") -> tuple:
    """The seed encrypt datapath; returns (ciphertext, tag)."""
    stream = keystream(gcm, iv, len(plaintext))
    ciphertext = bytes(p ^ s for p, s in zip(plaintext, stream))
    return ciphertext, tag(gcm, iv, ciphertext, aad)


def decrypt(gcm, iv: bytes, ciphertext: bytes, aad: bytes, expected: bytes) -> bytes:
    """The seed decrypt datapath; raises ValueError on a tag mismatch."""
    if not _constant_time_eq(tag(gcm, iv, ciphertext, aad), expected):
        raise ValueError("GCM authentication tag mismatch")
    stream = keystream(gcm, iv, len(ciphertext))
    return bytes(c ^ s for c, s in zip(ciphertext, stream))


# -- the stride-4 commutative GHASH (Sec. V-A) -----------------------------------


def gf128_pow(h: int, exponent: int) -> int:
    """H^exponent in GF(2^128) by square-and-multiply."""
    if exponent < 0:
        raise ValueError("negative exponent")
    result = 1 << 127  # the multiplicative identity in GCM bit order
    base = h
    while exponent:
        if exponent & 1:
            result = gf128_mul(result, base)
        base = gf128_mul(base, base)
        exponent >>= 1
    return result


def weighted_tag(h: bytes, contributions: list, total_blocks: int) -> int:
    """Sum of block * H^(total - position) over any-order
    [(position, 16-byte block)]; `total_blocks` counts every GHASH input
    block.  The weighted products commute, so arrival order is irrelevant:
    the property that lets the hardware fold cachelines as their rdCAS
    commands arrive."""
    h_int = int.from_bytes(h, "big")
    accumulator = 0
    for position, block in contributions:
        weight = gf128_pow(h_int, total_blocks - position)
        accumulator ^= gf128_mul(int.from_bytes(block, "big"), weight)
    return accumulator
