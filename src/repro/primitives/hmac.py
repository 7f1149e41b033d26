"""HMAC (RFC 2104 / FIPS 198-1) over the from-scratch hash functions.

The paper's µ function is a plain hash of the public cell address, but a
*keyed* µ is one of the hardening knobs analysed in the ablation benches:
the substitution attack of Sect. 3.1 searches for partial collisions of
µ offline, which HMAC makes impossible without the key.
"""

from __future__ import annotations

from typing import Callable, Type

from repro.primitives.sha1 import SHA1
from repro.primitives.sha256 import SHA256
from repro.primitives.util import constant_time_equal


class HMAC:
    """Incremental HMAC over a hash class with update/digest interface.

    The key is absorbed once: the inner and outer hash states start from
    the ipad and opad blocks when the object is keyed (RFC 2104, Sect. 4),
    and :meth:`copy` hands out that keyed state, so a caller that MACs
    many messages under one key pays for the two pad blocks once.
    """

    def __init__(self, key: bytes, hash_cls: Type = SHA256, data: bytes = b"") -> None:
        block_size = hash_cls.block_size
        if len(key) > block_size:
            key = hash_cls(key).digest()
        key = key.ljust(block_size, b"\x00")
        self._inner = hash_cls(bytes(b ^ 0x36 for b in key))
        # Never updated: digest() finishes a copy, so copies may share it.
        self._outer = hash_cls(bytes(b ^ 0x5C for b in key))
        self.digest_size = hash_cls.digest_size
        if data:
            self.update(data)

    def update(self, data: bytes) -> None:
        self._inner.update(data)

    def digest(self) -> bytes:
        outer = self._outer.copy()
        outer.update(self._inner.digest())
        return outer.digest()

    def hexdigest(self) -> str:
        return self.digest().hex()

    def copy(self) -> "HMAC":
        """An independent HMAC with the same key and absorbed message."""
        clone = object.__new__(HMAC)
        clone._inner = self._inner.copy()
        clone._outer = self._outer
        clone.digest_size = self.digest_size
        return clone

    def verify(self, tag: bytes) -> bool:
        """Constant-time comparison of ``tag`` against the computed MAC."""
        return constant_time_equal(self.digest(), tag)


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    """One-shot HMAC-SHA256."""
    return HMAC(key, SHA256, data).digest()


def hmac_sha1(key: bytes, data: bytes) -> bytes:
    """One-shot HMAC-SHA1."""
    return HMAC(key, SHA1, data).digest()


def make_keyed_hash(key: bytes, hash_cls: Type = SHA256) -> Callable[[bytes], bytes]:
    """Return a unary keyed-hash closure (drop-in replacement for µ's h).

    The key is absorbed once; each call MACs a copy of that keyed state.
    """
    keyed = HMAC(key, hash_cls)

    def keyed_hash(data: bytes) -> bytes:
        mac = keyed.copy()
        mac.update(data)
        return mac.digest()

    return keyed_hash
