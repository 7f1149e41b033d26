"""AES against FIPS 197 vectors and structural properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BlockSizeError, KeyLengthError
from repro.primitives.aes import AES, _build_sbox, _gf_multiply
from repro.primitives.aes_fast import FastAES

PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")

FIPS_VECTORS = [
    (bytes(range(16)), "69c4e0d86a7b0430d8cdb78070b4c55a"),
    (bytes(range(24)), "dda97ca4864cdfe06eaf70a0ec0d7191"),
    (bytes(range(32)), "8ea2b7ca516745bfeafc49904b496089"),
]


@pytest.mark.parametrize("key,expected", FIPS_VECTORS)
def test_fips197_appendix_c_vectors(key, expected):
    assert AES(key).encrypt_block(PLAINTEXT).hex() == expected


@pytest.mark.parametrize("key,expected", FIPS_VECTORS)
def test_fips197_decrypt(key, expected):
    assert AES(key).decrypt_block(bytes.fromhex(expected)) == PLAINTEXT


def test_fips197_appendix_b_vector():
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
    assert AES(key).encrypt_block(plaintext).hex() == "3925841d02dc09fbdc118597196a0b32"


@given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
@settings(max_examples=25, deadline=None)
def test_round_trip_property(key, block):
    cipher = AES(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


def test_encryption_is_a_permutation():
    cipher = AES(bytes(16))
    blocks = {bytes([i]) + bytes(15) for i in range(64)}
    encrypted = {cipher.encrypt_block(block) for block in blocks}
    assert len(encrypted) == len(blocks)


def test_different_keys_differ():
    block = bytes(16)
    assert AES(bytes(16)).encrypt_block(block) != AES(bytes(15) + b"\x01").encrypt_block(block)


@pytest.mark.parametrize("length", [0, 1, 15, 17, 23, 31, 33, 64])
def test_invalid_key_lengths_rejected(length):
    with pytest.raises(KeyLengthError):
        AES(bytes(length))


@pytest.mark.parametrize("length", [0, 1, 15, 17, 32])
def test_invalid_block_lengths_rejected(length):
    # FastAES unpacks exactly 16 octets; the size check must raise the
    # typed error before that, in the batch methods too.
    for cipher in (AES(bytes(16)), FastAES(bytes(16))):
        with pytest.raises(BlockSizeError):
            cipher.encrypt_block(bytes(length))
        with pytest.raises(BlockSizeError):
            cipher.decrypt_block(bytes(length))
        with pytest.raises(BlockSizeError):
            cipher.encrypt_blocks([bytes(16), bytes(length)])
        with pytest.raises(BlockSizeError):
            cipher.decrypt_blocks([bytes(16), bytes(length)])


def test_sbox_is_a_permutation_with_known_values():
    sbox, inverse = _build_sbox()
    assert sorted(sbox) == list(range(256))
    assert sbox[0x00] == 0x63
    assert sbox[0x01] == 0x7C
    assert sbox[0x53] == 0xED
    for x in range(256):
        assert inverse[sbox[x]] == x


def test_gf_multiply_basics():
    assert _gf_multiply(0x57, 0x83) == 0xC1  # FIPS 197 worked example
    assert _gf_multiply(0x57, 0x02) == 0xAE
    assert _gf_multiply(1, 0xAB) == 0xAB
    assert _gf_multiply(0, 0xFF) == 0


def test_block_size_attribute():
    assert AES(bytes(16)).block_size == 16
    assert AES(bytes(16)).name == "aes-128"
    assert AES(bytes(32)).name == "aes-256"
