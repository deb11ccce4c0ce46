"""AES block cipher: FIPS-197 vectors, T-tables vs the round-primitive
oracle, round trips through the oracle's inverse cipher."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ulp.aes import AES, _gf_mul, _SBOX
from tests.ulp.aes_gcm_oracle import INV_SBOX, decrypt_block, encrypt_block


# Known-answer vectors from FIPS-197 Appendix C.
FIPS_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_VECTORS = [
    ("000102030405060708090a0b0c0d0e0f", "69c4e0d86a7b0430d8cdb78070b4c55a"),
    ("000102030405060708090a0b0c0d0e0f1011121314151617", "dda97ca4864cdfe06eaf70a0ec0d7191"),
    (
        "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        "8ea2b7ca516745bfeafc49904b496089",
    ),
]


@pytest.mark.parametrize("key_hex,ct_hex", FIPS_VECTORS)
def test_fips197_known_answers(key_hex, ct_hex):
    aes = AES(bytes.fromhex(key_hex))
    assert aes.encrypt_block(FIPS_PLAINTEXT) == bytes.fromhex(ct_hex)


@pytest.mark.parametrize("key_hex,ct_hex", FIPS_VECTORS)
def test_fips197_decrypt(key_hex, ct_hex):
    aes = AES(bytes.fromhex(key_hex))
    assert decrypt_block(aes, bytes.fromhex(ct_hex)) == FIPS_PLAINTEXT


@pytest.mark.parametrize("key_len", [16, 24, 32])
def test_round_counts(key_len):
    aes = AES(bytes(key_len))
    assert aes.rounds == {16: 10, 24: 12, 32: 14}[key_len]


def test_invalid_key_length_rejected():
    with pytest.raises(ValueError):
        AES(bytes(15))
    with pytest.raises(ValueError):
        AES(bytes(33))


def test_invalid_block_length_rejected():
    aes = AES(bytes(16))
    with pytest.raises(ValueError):
        aes.encrypt_block(b"short")
    with pytest.raises(ValueError):
        decrypt_block(aes, bytes(17))


@pytest.mark.parametrize("key_len", [16, 24, 32])
def test_ttable_path_matches_reference(key_len):
    aes = AES(os.urandom(key_len))
    for _ in range(8):
        block = os.urandom(16)
        assert aes.encrypt_block(block) == encrypt_block(aes, block)


@settings(max_examples=30, deadline=None)
@given(key=st.binary(min_size=16, max_size=16), block=st.binary(min_size=16, max_size=16))
def test_encrypt_decrypt_round_trip(key, block):
    aes = AES(key)
    assert decrypt_block(aes, aes.encrypt_block(block)) == block


def test_encryption_is_permutation():
    """Distinct plaintexts under one key never collide."""
    aes = AES(bytes(16))
    outputs = {aes.encrypt_block(i.to_bytes(16, "big")) for i in range(64)}
    assert len(outputs) == 64


def test_sbox_is_inverse_pair():
    assert sorted(_SBOX) == list(range(256))
    for value in range(256):
        assert INV_SBOX[_SBOX[value]] == value


def test_sbox_known_entries():
    # S-box corners from the FIPS-197 table.
    assert _SBOX[0x00] == 0x63
    assert _SBOX[0x01] == 0x7C
    assert _SBOX[0x53] == 0xED
    assert _SBOX[0xFF] == 0x16


def test_gf_mul_basics():
    assert _gf_mul(0x57, 0x83) == 0xC1  # FIPS-197 Sec. 4.2 example
    assert _gf_mul(0x57, 0x13) == 0xFE
    assert _gf_mul(0, 0xAB) == 0
    assert _gf_mul(1, 0xAB) == 0xAB


def test_key_avalanche():
    """Flipping one key bit changes the ciphertext substantially."""
    base = AES(bytes(16)).encrypt_block(bytes(16))
    flipped = AES(bytes([0x01] + [0] * 15)).encrypt_block(bytes(16))
    differing = sum(bin(a ^ b).count("1") for a, b in zip(base, flipped))
    assert differing > 30
