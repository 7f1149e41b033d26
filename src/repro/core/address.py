"""The address-checksum function µ of [3].

Sect. 2.2 of the paper: the cell encryption schemes "employ a function µ
to convert the cell address triple before inclusion in the plaintext",
and "it is suggested that the function µ is instantiated with a
cryptographic hash function to obtain collision resistance".  Sect. 3.1
follows [3, Sect. 6.2] concretely: ``µ(t,r,c) = h(t ∥ r ∥ c)`` with
SHA-1 "truncated to the first 128 bits".

The substitution attack of Sect. 3.1 searches *offline* for partial
collisions of µ across addresses, which is possible precisely because µ
is unkeyed.  :class:`KeyedMu` (HMAC) is the hardened variant used by the
ablation benchmarks — it does not fix the scheme (no integrity), but it
moves the collision search online.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Type

from repro.engine.table import CellAddress
from repro.primitives.hmac import make_keyed_hash
from repro.primitives.sha1 import SHA1
from repro.primitives.sha256 import SHA256


class Mu(ABC):
    """A function from cell addresses to fixed-length checksums."""

    #: Output length in bytes.
    size: int
    name: str

    @abstractmethod
    def __call__(self, address: CellAddress) -> bytes:
        """Compute µ(t, r, c)."""


class HashMu(Mu):
    """µ(t,r,c) = h(t ∥ r ∥ c) truncated — the paper's instantiation.

    Default: SHA-1 truncated to 16 bytes (128 bits), exactly the Sect. 3.1
    experiment's choice, sized to the AES block.
    """

    def __init__(self, hash_cls: Type = SHA1, size: int = 16) -> None:
        if not 1 <= size <= hash_cls.digest_size:
            raise ValueError(
                f"size must be in 1..{hash_cls.digest_size} for {hash_cls.name}"
            )
        self._hash_cls = hash_cls
        self.size = size
        self.name = f"{hash_cls.name}/{size * 8}"

    def __call__(self, address: CellAddress) -> bytes:
        return self._hash_cls(address.encode()).digest()[: self.size]


class KeyedMu(Mu):
    """µ_k(t,r,c) = HMAC_k(t ∥ r ∥ c) truncated (ablation variant).

    An adversary without k cannot evaluate µ, so the offline
    partial-collision search of Sect. 3.1 becomes impossible; the scheme
    remains unauthenticated (the CBC cut-and-paste forgeries survive).
    """

    def __init__(self, key: bytes, hash_cls: Type = SHA256, size: int = 16) -> None:
        if not 1 <= size <= hash_cls.digest_size:
            raise ValueError(
                f"size must be in 1..{hash_cls.digest_size} for {hash_cls.name}"
            )
        self._keyed = make_keyed_hash(bytes(key), hash_cls)
        self.size = size
        self.name = f"hmac-{hash_cls.name}/{size * 8}"

    def __call__(self, address: CellAddress) -> bytes:
        return self._keyed(address.encode())[: self.size]


def default_mu() -> HashMu:
    """The paper's concrete µ: SHA-1 truncated to 128 bits."""
    return HashMu(SHA1, 16)
