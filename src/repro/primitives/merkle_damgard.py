"""The Merkle–Damgård framing SHA-1 and SHA-256 share (FIPS 180-4, Sect. 5).

Both hashes buffer the message into 64-octet blocks, pad it the same way
(0x80, zeros up to 56 mod 64, then the 64-bit message length in bits)
and chain 32-bit state words through a compression function.  This
module holds that framing once; each hash subclasses
:class:`MerkleDamgard` with its own initial state, digest layout and
``_compress``.
"""

from __future__ import annotations

import struct
from typing import ClassVar, TypeVar

_PACK_BIT_LENGTH = struct.Struct(">Q").pack

_Hash = TypeVar("_Hash", bound="MerkleDamgard")


class MerkleDamgard:
    """Incremental hashing with the familiar update/digest interface.

    A subclass sets ``digest_size``, ``block_size`` (64), ``name``,
    ``_initial_state`` (its state words) and ``_digest_layout`` (a
    ``struct.Struct`` that packs them into the digest), and defines
    ``_compress(self, block)``, which folds one 64-octet block into
    ``self._state``.  Every block goes through ``self._compress``, one
    call per block, so a patch on the class sees each compression the
    hash makes.
    """

    digest_size: ClassVar[int]
    block_size: ClassVar[int]
    name: ClassVar[str]
    _initial_state: ClassVar[tuple[int, ...]]
    _digest_layout: ClassVar[struct.Struct]

    def __init__(self, data: bytes = b"") -> None:
        self._state = list(self._initial_state)
        self._length = 0
        self._pending = b""
        if data:
            self.update(data)

    def _compress(self, block: bytes) -> None:
        raise NotImplementedError

    def update(self, data: bytes) -> None:
        """Absorb more message bytes."""
        self._length += len(data)
        buffer = self._pending + data
        offset = 0
        while offset + 64 <= len(buffer):
            self._compress(buffer[offset : offset + 64])
            offset += 64
        self._pending = buffer[offset:]

    def digest(self) -> bytes:
        """Return the digest of everything absorbed so far.

        The padded tail is one or two blocks, compressed on a copy of the
        state, so the hash can go on absorbing afterwards.
        """
        pending = self._pending
        tail = (
            pending
            + b"\x80"
            + bytes((55 - len(pending)) % 64)
            + _PACK_BIT_LENGTH(self._length * 8)
        )
        clone = self.copy()
        for offset in range(0, len(tail), 64):
            clone._compress(tail[offset : offset + 64])
        return self._digest_layout.pack(*clone._state)

    def hexdigest(self) -> str:
        return self.digest().hex()

    def copy(self: _Hash) -> _Hash:
        """An independent hash with the same absorbed message."""
        clone = object.__new__(type(self))
        clone._state = list(self._state)
        clone._length = self._length
        clone._pending = self._pending
        return clone
