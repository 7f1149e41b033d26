"""SHA-1 implemented from scratch (FIPS 180-4).

Sect. 3.1 of the paper instantiates the address-checksum function
``µ(t,r,c) = h(t ∥ r ∥ c)`` with SHA-1 truncated to the first 128 bits;
this module provides exactly that ``h``.  SHA-1 is cryptographically
broken for collision resistance in general, but here we reproduce the
paper's instantiation faithfully.  Cross-checked against ``hashlib``.
"""

from __future__ import annotations

import struct

from repro.primitives.merkle_damgard import MerkleDamgard

_MASK = 0xFFFFFFFF

_INITIAL_STATE = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0)

_UNPACK_BLOCK = struct.Struct(">16I").unpack


class SHA1(MerkleDamgard):
    """Incremental SHA-1 with the familiar update/digest interface."""

    digest_size = 20
    block_size = 64
    name = "sha1"
    _initial_state = _INITIAL_STATE
    _digest_layout = struct.Struct(">5I")

    def _compress(self, block: bytes) -> None:
        # x * 0x1_0000_0001 puts two copies of the 32-bit word x side by
        # side, so the low 32 bits of that product shifted right by 32 - n
        # are x rotated left by n.  The rotation inside each sum is left
        # unmasked: bits above the 32nd never reach the low word of a sum.
        mask = _MASK
        w = list(_UNPACK_BLOCK(block))
        for i in range(16, 80):
            x = w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]
            w.append((x * 0x1_0000_0001 >> 31) & mask)

        # Rounds 0-19 choose (Ch), 20-39 and 60-79 take the parity, and
        # 40-59 the majority (Maj), each with its own round constant.
        a, b, c, d, e = self._state
        for wt in w[:20]:
            t = (a * 0x1_0000_0001 >> 27) + (d ^ b & (c ^ d)) + e + 0x5A827999 + wt
            e, d, c, b, a = d, c, (b * 0x1_0000_0001 >> 2) & mask, a, t & mask
        for wt in w[20:40]:
            t = (a * 0x1_0000_0001 >> 27) + (b ^ c ^ d) + e + 0x6ED9EBA1 + wt
            e, d, c, b, a = d, c, (b * 0x1_0000_0001 >> 2) & mask, a, t & mask
        for wt in w[40:60]:
            t = (a * 0x1_0000_0001 >> 27) + (b & c | d & (b | c)) + e + 0x8F1BBCDC + wt
            e, d, c, b, a = d, c, (b * 0x1_0000_0001 >> 2) & mask, a, t & mask
        for wt in w[60:]:
            t = (a * 0x1_0000_0001 >> 27) + (b ^ c ^ d) + e + 0xCA62C1D6 + wt
            e, d, c, b, a = d, c, (b * 0x1_0000_0001 >> 2) & mask, a, t & mask

        self._state = [(x + y) & mask for x, y in zip(self._state, (a, b, c, d, e))]


def sha1(data: bytes) -> bytes:
    """One-shot SHA-1 digest."""
    return SHA1(data).digest()


def sha1_truncated(data: bytes, length: int = 16) -> bytes:
    """SHA-1 truncated to the first ``length`` bytes.

    With the default length of 16 this is the paper's concrete µ building
    block: "SHA1 for h (truncated to the first 128 bits)" (Sect. 3.1).
    """
    if not 1 <= length <= 20:
        raise ValueError("truncation length must be in 1..20")
    return sha1(data)[:length]
