"""SHA-256 implemented from scratch (FIPS 180-4).

Every durable MAC runs on this hash: HMAC-SHA256 over the WAL commit
markers, the checkpoint envelopes, the shard manifest and the scrubber's
checks, and the KDF that derives the purpose keys.  The deterministic
RNG draws from it too, and it is an alternative instantiation of the
address-checksum function µ.  ``hashlib`` is its test oracle, not a
backend.  ``SHA256._compress`` is the one call per 64-octet block, and
``perfbench/tracing.py`` patches it on the class to charge
``primitives.sha256_bytes``.
"""

from __future__ import annotations

import struct
from operator import add

from repro.primitives.merkle_damgard import MerkleDamgard

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


class SHA256(MerkleDamgard):
    """Incremental SHA-256 with the familiar update/digest interface."""

    digest_size = 32
    block_size = 64
    name = "sha256"
    _initial_state = _INITIAL_STATE
    _digest_layout = struct.Struct(">8I")

    def _compress(self, block: bytes) -> None:
        # The one call per 64-octet block.  x * 0x1_0000_0001 puts two
        # copies of the 32-bit word x side by side, so the low 32 bits of
        # that product shifted right by n are x rotated right by n: each
        # rotation is one shift.  Bits above the 32nd are left in and never
        # reach the low word of a sum, so one mask per sum suffices.
        mask = _MASK
        w = list(_UNPACK_BLOCK(block))
        for i in range(16, 64):
            x = w[i - 15]
            y = w[i - 2]
            xx = x * 0x1_0000_0001
            yy = y * 0x1_0000_0001
            s0 = xx >> 7 ^ xx >> 18 ^ x >> 3
            s1 = yy >> 17 ^ yy >> 19 ^ y >> 10
            w.append((w[i - 16] + s0 + w[i - 7] + s1) & mask)
        # Round t adds K_t + W_t; one pass sums all 64 before the rounds.
        kw = list(map(add, _K, w))

        # Eight rounds per turn.  Round i + j works on the state renamed
        # j places, so no variable is moved: each round writes only the
        # new e over d and the new a over h, and after eight rounds every
        # name holds its own word again.
        a, b, c, d, e, f, g, h = self._state
        for i in range(0, 64, 8):
            x = e * 0x1_0000_0001
            t = h + (x >> 6 ^ x >> 11 ^ x >> 25) + (g ^ e & (f ^ g)) + kw[i]
            d = (d + t) & mask
            x = a * 0x1_0000_0001
            h = (t + (x >> 2 ^ x >> 13 ^ x >> 22) + (a & b | c & (a | b))) & mask

            x = d * 0x1_0000_0001
            t = g + (x >> 6 ^ x >> 11 ^ x >> 25) + (f ^ d & (e ^ f)) + kw[i + 1]
            c = (c + t) & mask
            x = h * 0x1_0000_0001
            g = (t + (x >> 2 ^ x >> 13 ^ x >> 22) + (h & a | b & (h | a))) & mask

            x = c * 0x1_0000_0001
            t = f + (x >> 6 ^ x >> 11 ^ x >> 25) + (e ^ c & (d ^ e)) + kw[i + 2]
            b = (b + t) & mask
            x = g * 0x1_0000_0001
            f = (t + (x >> 2 ^ x >> 13 ^ x >> 22) + (g & h | a & (g | h))) & mask

            x = b * 0x1_0000_0001
            t = e + (x >> 6 ^ x >> 11 ^ x >> 25) + (d ^ b & (c ^ d)) + kw[i + 3]
            a = (a + t) & mask
            x = f * 0x1_0000_0001
            e = (t + (x >> 2 ^ x >> 13 ^ x >> 22) + (f & g | h & (f | g))) & mask

            x = a * 0x1_0000_0001
            t = d + (x >> 6 ^ x >> 11 ^ x >> 25) + (c ^ a & (b ^ c)) + kw[i + 4]
            h = (h + t) & mask
            x = e * 0x1_0000_0001
            d = (t + (x >> 2 ^ x >> 13 ^ x >> 22) + (e & f | g & (e | f))) & mask

            x = h * 0x1_0000_0001
            t = c + (x >> 6 ^ x >> 11 ^ x >> 25) + (b ^ h & (a ^ b)) + kw[i + 5]
            g = (g + t) & mask
            x = d * 0x1_0000_0001
            c = (t + (x >> 2 ^ x >> 13 ^ x >> 22) + (d & e | f & (d | e))) & mask

            x = g * 0x1_0000_0001
            t = b + (x >> 6 ^ x >> 11 ^ x >> 25) + (a ^ g & (h ^ a)) + kw[i + 6]
            f = (f + t) & mask
            x = c * 0x1_0000_0001
            b = (t + (x >> 2 ^ x >> 13 ^ x >> 22) + (c & d | e & (c | d))) & mask

            x = f * 0x1_0000_0001
            t = a + (x >> 6 ^ x >> 11 ^ x >> 25) + (h ^ f & (g ^ h)) + kw[i + 7]
            e = (e + t) & mask
            x = b * 0x1_0000_0001
            a = (t + (x >> 2 ^ x >> 13 ^ x >> 22) + (b & c | d & (b | c))) & mask
        self._state = [
            (x + y) & mask for x, y in zip(self._state, (a, b, c, d, e, f, g, h))
        ]


def sha256(data: bytes) -> bytes:
    """One-shot SHA-256 digest."""
    return SHA256(data).digest()
