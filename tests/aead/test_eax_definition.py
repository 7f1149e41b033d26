"""EAX equals its definition, composed from separately validated pieces.

``repro.mac.omac.OMAC`` is pinned by the RFC 4493 vectors
(``tests/mac/test_omac.py``) and ``CTR.keystream`` by NIST SP 800-38A
(``tests/modes/test_nist_vectors.py``).  EAX (Bellare–Rogaway–Wagner) is

    N' = OMAC([0]_n ∥ N)    H' = OMAC([1]_n ∥ H)    C = M ⊕ keystream(N')
    T  = (N' ⊕ OMAC([2]_n ∥ C) ⊕ H')[:τ]

Checked on AES from ``make_cipher`` (so ``REPRO_CIPHER_BACKEND`` picks
the backend) and on DES, whose 8-octet blocks use the GF(2^64) subkeys.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aead.eax import EAX
from repro.errors import AuthenticationError
from repro.mac.omac import OMAC
from repro.modes.ctr import CTR
from repro.primitives.backends import make_cipher

KEY_OCTETS = {"aes": 16, "des": 8}


def _xor(x: bytes, y: bytes) -> bytes:
    return bytes(a ^ b for a, b in zip(x, y, strict=True))


def tweaked_omac(cipher, tweak: int, data: bytes) -> bytes:
    return OMAC(cipher).tag(tweak.to_bytes(cipher.block_size, "big") + data)


def reference_ctr(cipher, nonce: bytes, data: bytes) -> bytes:
    """data ⊕ keystream(N'); CTR is its own inverse."""
    start = tweaked_omac(cipher, 0, nonce)
    return _xor(data, CTR(cipher).keystream(start, len(data)))


def reference_tag(cipher, nonce, header, ciphertext, tag_size: int) -> bytes:
    n_mac = tweaked_omac(cipher, 0, nonce)
    c_mac = tweaked_omac(cipher, 2, ciphertext)
    return _xor(_xor(n_mac, c_mac), tweaked_omac(cipher, 1, header))[:tag_size]


def octets(block: int, min_size: int = 0):
    """0–70 octets, with exact block multiples drawn as often as not."""
    multiples = st.integers(-(-min_size // block), 70 // block).map(
        lambda k: k * block
    )
    size = st.one_of(st.integers(min_size, 70), multiples)
    return size.flatmap(lambda n: st.binary(min_size=n, max_size=n))


@st.composite
def cases(draw, algorithm):
    size = KEY_OCTETS[algorithm]
    cipher = make_cipher(algorithm, draw(st.binary(min_size=size, max_size=size)))
    block = cipher.block_size
    return (
        cipher,
        draw(octets(block, min_size=1)),  # EAX rejects an empty nonce
        draw(octets(block)),
        draw(octets(block)),
        draw(st.integers(1, block)),
    )


@pytest.mark.parametrize("algorithm", sorted(KEY_OCTETS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_eax_equals_its_definition(algorithm, data):
    cipher, nonce, header, message, tag_size = data.draw(cases(algorithm))
    aead = EAX(cipher, tag_size=tag_size)
    ciphertext, tag = aead.encrypt(nonce, message, header)
    assert ciphertext == reference_ctr(cipher, nonce, message)
    assert tag == reference_tag(cipher, nonce, header, ciphertext, tag_size)
    assert aead.decrypt(nonce, ciphertext, tag, header) == message
    assert aead.encrypt_batch([(nonce, message, header)]) == [(ciphertext, tag)]
    assert aead.decrypt_batch([(nonce, ciphertext, tag, header)]) == [message]


@pytest.mark.parametrize("algorithm", sorted(KEY_OCTETS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_flipped_bit_is_rejected(algorithm, data):
    cipher, nonce, header, message, tag_size = data.draw(cases(algorithm))
    aead = EAX(cipher, tag_size=tag_size)
    ciphertext, tag = aead.encrypt(nonce, message, header)
    fields = [nonce, header, ciphertext, tag]
    which = data.draw(st.sampled_from([i for i, value in enumerate(fields) if value]))
    bit = data.draw(st.integers(0, 8 * len(fields[which]) - 1))
    flipped = bytearray(fields[which])
    flipped[bit // 8] ^= 0x80 >> bit % 8
    fields[which] = bytes(flipped)
    nonce, header, ciphertext, tag = fields
    # A truncated tag can collide: the tampered input is rejected exactly
    # when the definition gives it a different tag.
    if reference_tag(cipher, nonce, header, ciphertext, tag_size) != tag:
        with pytest.raises(AuthenticationError):
            aead.decrypt(nonce, ciphertext, tag, header)
    else:
        plaintext = reference_ctr(cipher, nonce, ciphertext)
        assert aead.decrypt(nonce, ciphertext, tag, header) == plaintext
