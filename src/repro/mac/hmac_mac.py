"""Adapter presenting HMAC through the :class:`repro.mac.base.MAC` interface.

Lets the [12]-style index scheme be instantiated with a hash-based MAC,
one of the "usual components" a practitioner might reach for.  HMAC with
a key independent of the encryption key defeats the Sect. 3.3
interaction attack — one of the ablation points of DESIGN.md.
"""

from __future__ import annotations

from typing import Type

from repro.mac.base import MAC
from repro.primitives.hmac import make_keyed_hash
from repro.primitives.sha256 import SHA256


class HMACMAC(MAC):
    """HMAC-based MAC (default HMAC-SHA256), optionally truncated.

    The key is absorbed once, at construction; each tag starts from a
    copy of that keyed state.
    """

    def __init__(
        self, key: bytes, hash_cls: Type = SHA256, tag_size: int | None = None
    ) -> None:
        full = hash_cls.digest_size
        self.tag_size = tag_size if tag_size is not None else full
        if not 1 <= self.tag_size <= full:
            raise ValueError("tag size must be between 1 and the digest size")
        self.name = f"hmac-{hash_cls.name}"
        self._keyed = make_keyed_hash(bytes(key), hash_cls)

    def tag(self, message: bytes) -> bytes:
        return self._keyed(message)[: self.tag_size]
