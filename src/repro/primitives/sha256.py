"""SHA-256 implemented from scratch (FIPS 180-4).

Used by the deterministic RNG and available as an alternative
instantiation of the address-checksum function µ.  Cross-checked against
``hashlib`` in the test suite.
"""

from __future__ import annotations

import struct

# fmt: off
_K = (
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5,
    0x3956C25B, 0x59F111F1, 0x923F82A4, 0xAB1C5ED5,
    0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174,
    0xE49B69C1, 0xEFBE4786, 0x0FC19DC6, 0x240CA1CC,
    0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7,
    0xC6E00BF3, 0xD5A79147, 0x06CA6351, 0x14292967,
    0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85,
    0xA2BFE8A1, 0xA81A664B, 0xC24B8B70, 0xC76C51A3,
    0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5,
    0x391C0CB3, 0x4ED8AA4A, 0x5B9CCA4F, 0x682E6FF3,
    0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
)

_INITIAL_STATE = (
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
)

# fmt: on
_MASK = 0xFFFFFFFF
_UNPACK_BLOCK = struct.Struct(">16I").unpack


class SHA256:
    """Incremental SHA-256 with the familiar update/digest interface."""

    digest_size = 32
    block_size = 64
    name = "sha256"

    def __init__(self, data: bytes = b"") -> None:
        self._state = list(_INITIAL_STATE)
        self._length = 0
        self._pending = b""
        if data:
            self.update(data)

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
        """Return the 32-byte digest of everything absorbed so far."""
        clone = self.copy()
        bit_length = clone._length * 8
        clone.update(b"\x80")
        while len(clone._pending) != 56:
            clone.update(b"\x00")
        # Do not go through update(): the length block must not count itself.
        clone._compress(clone._pending + struct.pack(">Q", bit_length))
        return struct.pack(">8I", *clone._state)

    def hexdigest(self) -> str:
        return self.digest().hex()

    def copy(self) -> "SHA256":
        clone = SHA256()
        clone._state = list(self._state)
        clone._length = self._length
        clone._pending = self._pending
        return clone

    def _compress(self, block: bytes) -> None:
        # The one call per 64-octet block.  Rotations are written inline
        # (x >> n | x << 32 - n) and left unmasked: bits above the 32nd
        # never reach the low word of a sum, so one mask per sum suffices.
        k = _K
        mask = _MASK
        w = list(_UNPACK_BLOCK(block))
        for i in range(16, 64):
            x = w[i - 15]
            y = w[i - 2]
            s0 = (x >> 7 | x << 25) ^ (x >> 18 | x << 14) ^ (x >> 3)
            s1 = (y >> 17 | y << 15) ^ (y >> 19 | y << 13) ^ (y >> 10)
            w.append((w[i - 16] + s0 + w[i - 7] + s1) & mask)

        a, b, c, d, e, f, g, h = self._state
        for i in range(64):
            s1 = (e >> 6 | e << 26) ^ (e >> 11 | e << 21) ^ (e >> 25 | e << 7)
            ch = g ^ (e & (f ^ g))
            temp1 = h + s1 + ch + k[i] + w[i]
            s0 = (a >> 2 | a << 30) ^ (a >> 13 | a << 19) ^ (a >> 22 | a << 10)
            maj = (a & b) | (c & (a | b))
            h, g, f = g, f, e
            e = (d + temp1) & mask
            d, c, b = c, b, a
            a = (temp1 + s0 + maj) & mask

        self._state = [
            (x + y) & mask for x, y in zip(self._state, (a, b, c, d, e, f, g, h))
        ]


def sha256(data: bytes) -> bytes:
    """One-shot SHA-256 digest."""
    return SHA256(data).digest()
