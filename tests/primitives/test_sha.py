"""SHA-1 / SHA-256 against hashlib and NIST vectors, and their compression seam."""

import hashlib
import hmac as stdlib_hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mac.hmac_mac import HMACMAC
from repro.primitives.hmac import hmac_sha1, hmac_sha256
from repro.primitives.sha1 import SHA1, sha1, sha1_truncated
from repro.primitives.sha256 import SHA256, sha256


def test_sha1_known_vectors():
    assert sha1(b"abc").hex() == "a9993e364706816aba3e25717850c26c9cd0d89d"
    assert sha1(b"").hex() == "da39a3ee5e6b4b0d3255bfef95601890afd80709"


def test_sha256_known_vectors():
    assert sha256(b"abc").hex() == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )
    assert sha256(b"").hex() == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )


@given(st.binary(max_size=500))
@settings(max_examples=60, deadline=None)
def test_sha1_matches_hashlib(data):
    assert sha1(data) == hashlib.sha1(data).digest()


@given(st.binary(max_size=500))
@settings(max_examples=60, deadline=None)
def test_sha256_matches_hashlib(data):
    assert sha256(data) == hashlib.sha256(data).digest()


@given(st.integers(min_value=1024, max_value=16384), st.integers(0, 255))
@settings(max_examples=10, deadline=None)
def test_sha256_matches_hashlib_on_long_messages(size, seed):
    # Checkpoint images run to ~14 KB: hundreds of compressions in a row.
    data = bytes((seed + 31 * i + (i >> 8)) & 0xFF for i in range(size))
    assert sha256(data) == hashlib.sha256(data).digest()


@pytest.mark.parametrize("size", [55, 56, 57, 63, 64, 65, 119, 120, 128])
def test_padding_boundaries(size):
    # Lengths around the 64-byte block and 55/56-byte padding boundary.
    data = bytes(range(256))[:size] * 1
    assert sha1(data) == hashlib.sha1(data).digest()
    assert sha256(data) == hashlib.sha256(data).digest()


@given(st.lists(st.binary(max_size=100), max_size=8))
@settings(max_examples=40, deadline=None)
def test_incremental_update_equals_one_shot(chunks):
    joined = b"".join(chunks)
    for cls, module in ((SHA1, hashlib.sha1), (SHA256, hashlib.sha256)):
        inc = cls()
        for chunk in chunks:
            inc.update(chunk)
        assert inc.digest() == module(joined).digest()


def test_digest_does_not_consume_state():
    h = SHA256(b"part-one")
    first = h.digest()
    assert h.digest() == first
    h.update(b"part-two")
    assert h.digest() == sha256(b"part-onepart-two")


def test_copy_is_independent():
    h = SHA1(b"shared")
    clone = h.copy()
    clone.update(b"-more")
    assert h.digest() == sha1(b"shared")
    assert clone.digest() == sha1(b"shared-more")


def test_sha1_truncated_is_prefix():
    digest = sha1(b"value")
    assert sha1_truncated(b"value", 16) == digest[:16]
    assert sha1_truncated(b"value", 20) == digest
    assert len(sha1_truncated(b"value")) == 16  # the paper's 128-bit µ


@pytest.mark.parametrize("length", [0, 21, 32])
def test_sha1_truncation_bounds(length):
    with pytest.raises(ValueError):
        sha1_truncated(b"x", length)


def test_hexdigest():
    assert SHA256(b"abc").hexdigest() == hashlib.sha256(b"abc").hexdigest()
    assert SHA1(b"abc").hexdigest() == hashlib.sha1(b"abc").hexdigest()


# The compression seam: perfbench/tracing.py wraps ``_compress`` on the
# class and charges each call as one 64-octet block.  These tests wrap it
# the same way and count the calls a message, a keyed MAC and a one-shot
# HMAC make.

SEAM_LENGTHS = [0, 1, 55, 56, 63, 64, 119, 120, 14_000]


def _blocks_for(n: int) -> int:
    # The message, the 0x80 octet and the 8-octet length, in whole blocks.
    return -(-(n + 9) // 64)


def _count_compressions(monkeypatch, cls) -> list[int]:
    sizes: list[int] = []
    compress = cls._compress

    def counted(self, block):
        sizes.append(len(block))
        return compress(self, block)

    monkeypatch.setattr(cls, "_compress", counted)
    return sizes


def _message(n: int) -> bytes:
    return bytes((13 * i + 5) & 0xFF for i in range(n))


@pytest.mark.parametrize("n", SEAM_LENGTHS)
@pytest.mark.parametrize(
    "cls, reference",
    [(SHA1, hashlib.sha1), (SHA256, hashlib.sha256)],
    ids=["sha1", "sha256"],
)
def test_each_block_is_one_compress_call(monkeypatch, cls, reference, n):
    sizes = _count_compressions(monkeypatch, cls)
    message = _message(n)
    assert cls(message).digest() == reference(message).digest()
    assert sizes == [64] * _blocks_for(n)


@pytest.mark.parametrize("n", SEAM_LENGTHS)
@pytest.mark.parametrize("cls", [SHA1, SHA256], ids=["sha1", "sha256"])
def test_keyed_mac_tag_costs_the_message_blocks_plus_one(monkeypatch, cls, n):
    # The ipad and opad blocks are absorbed when the MAC is keyed; a tag
    # pays for the inner message blocks and one outer block.
    sizes = _count_compressions(monkeypatch, cls)
    mac = HMACMAC(b"k" * 20, cls)
    assert len(sizes) == 2
    sizes.clear()
    tag = mac.tag(_message(n))
    assert tag == stdlib_hmac.new(b"k" * 20, _message(n), cls.name).digest()
    assert sizes == [64] * (_blocks_for(n) + 1)


@pytest.mark.parametrize("n", SEAM_LENGTHS)
@pytest.mark.parametrize("key_size", [0, 20, 64])
@pytest.mark.parametrize(
    "cls, one_shot",
    [(SHA1, hmac_sha1), (SHA256, hmac_sha256)],
    ids=["sha1", "sha256"],
)
def test_one_shot_hmac_costs_two_pad_blocks_more(
    monkeypatch, cls, one_shot, key_size, n
):
    sizes = _count_compressions(monkeypatch, cls)
    key = bytes(range(key_size))
    tag = one_shot(key, _message(n))
    assert tag == stdlib_hmac.new(key, _message(n), cls.name).digest()
    assert sizes == [64] * (_blocks_for(n) + 3)
