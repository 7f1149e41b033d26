"""HMAC against the standard library and RFC 2202/4231 vectors."""

import hashlib
import hmac as stdlib_hmac

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.primitives.hmac import HMAC, hmac_sha1, hmac_sha256, make_keyed_hash
from repro.primitives.sha1 import SHA1
from repro.primitives.sha256 import SHA256


def test_rfc2202_sha1_vector():
    tag = hmac_sha1(b"\x0b" * 20, b"Hi There")
    assert tag.hex() == "b617318655057264e28bc0b6fb378c8ef146be00"


def test_rfc4231_sha256_vector():
    tag = hmac_sha256(b"\x0b" * 20, b"Hi There")
    assert tag.hex() == (
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    )


def test_rfc4231_long_key_vector():
    # Keys longer than the block size are hashed first.
    key = b"\xaa" * 131
    msg = b"Test Using Larger Than Block-Size Key - Hash Key First"
    assert hmac_sha256(key, msg) == stdlib_hmac.new(key, msg, hashlib.sha256).digest()


@given(st.binary(max_size=200), st.binary(max_size=300))
@settings(max_examples=50, deadline=None)
def test_matches_stdlib(key, message):
    assert hmac_sha256(key, message) == stdlib_hmac.new(key, message, hashlib.sha256).digest()
    assert hmac_sha1(key, message) == stdlib_hmac.new(key, message, hashlib.sha1).digest()


def test_incremental_interface():
    mac = HMAC(b"key", SHA256)
    mac.update(b"hello ")
    mac.update(b"world")
    assert mac.digest() == hmac_sha256(b"key", b"hello world")


def test_copy_is_independent():
    mac = HMAC(b"key", SHA256, b"shared")
    clone = mac.copy()
    clone.update(b"-more")
    assert mac.digest() == hmac_sha256(b"key", b"shared")
    assert clone.digest() == hmac_sha256(b"key", b"shared-more")
    mac.update(b"-other")
    assert clone.digest() == hmac_sha256(b"key", b"shared-more")
    assert mac.digest() == hmac_sha256(b"key", b"shared-other")


def test_verify():
    mac = HMAC(b"key", SHA1, b"message")
    assert mac.verify(hmac_sha1(b"key", b"message"))
    assert not mac.verify(b"\x00" * 20)


def test_keyed_hash_factory():
    keyed = make_keyed_hash(b"secret")
    assert keyed(b"data") == hmac_sha256(b"secret", b"data")
    other = make_keyed_hash(b"other")
    assert keyed(b"data") != other(b"data")


def test_different_keys_produce_unrelated_tags():
    tags = {hmac_sha256(bytes([k]) * 16, b"fixed") for k in range(32)}
    assert len(tags) == 32
