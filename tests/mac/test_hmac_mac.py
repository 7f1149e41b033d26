"""The HMAC adapter behind the MAC interface."""

import hashlib
import hmac as stdlib_hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mac.hmac_mac import HMACMAC
from repro.primitives.hmac import hmac_sha1, hmac_sha256
from repro.primitives.sha1 import SHA1


def test_matches_hmac_sha256():
    mac = HMACMAC(b"key")
    assert mac.tag(b"message") == hmac_sha256(b"key", b"message")
    assert mac.tag_size == 32


def test_sha1_variant_and_truncation():
    mac = HMACMAC(b"key", SHA1, tag_size=10)
    assert mac.tag(b"m") == hmac_sha1(b"key", b"m")[:10]
    assert mac.name == "hmac-sha1"


def test_verify():
    mac = HMACMAC(b"key")
    assert mac.verify(b"m", mac.tag(b"m"))
    assert not mac.verify(b"m", bytes(32))


def test_tag_size_bounds():
    with pytest.raises(ValueError):
        HMACMAC(b"key", tag_size=0)
    with pytest.raises(ValueError):
        HMACMAC(b"key", tag_size=33)


@pytest.mark.parametrize("key_size", [0, 20, 64, 65, 131])
@given(messages=st.lists(st.binary(max_size=300), min_size=1, max_size=6))
@settings(max_examples=25, deadline=None)
def test_one_keyed_instance_tags_many_messages(key_size, messages):
    # The key is absorbed once per instance; every tag must still be the
    # HMAC of its own message alone, whatever was tagged before it.
    key = bytes((7 * i + key_size) & 0xFF for i in range(key_size))
    sha256_mac = HMACMAC(key)
    sha1_mac = HMACMAC(key, SHA1, tag_size=10)
    for message in messages:
        assert sha256_mac.tag(message) == (
            stdlib_hmac.new(key, message, hashlib.sha256).digest()
        )
        assert sha1_mac.tag(message) == (
            stdlib_hmac.new(key, message, hashlib.sha1).digest()[:10]
        )
