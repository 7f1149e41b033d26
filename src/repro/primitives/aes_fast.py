"""Optimized pure-python AES: precomputed T-tables over packed 32-bit words.

Same permutation as :class:`repro.primitives.aes.AES`, computed differently.
The reference implementation applies SubBytes / ShiftRows / MixColumns as
separate byte-level passes; here each round collapses into four table
lookups and XORs per state column (the classic T-table formulation from
the Rijndael submission).  The tables are derived at import time from the
same GF(2^8) arithmetic and S-box the reference uses — nothing opaque is
embedded — and byte-for-byte equivalence against the reference cipher is
pinned by the backend-parity tests and the CI parity matrix.

State layout: between rounds the state is 16 octets, column by column
(octet ``4c + r`` is row ``r`` of column ``c``), and each round unpacks
them into locals.  Column ``c`` of the round output reads row ``r`` from
input column ``(c + r) % 4`` (ShiftRows), so the octet indices are fixed:
encryption's four columns read octets (0, 5, 10, 15), (4, 9, 14, 3),
(8, 13, 2, 7) and (12, 1, 6, 11), row ``r`` through table ``Tr``, which
folds the MixColumns matrix in:

    T0[x] = (2s, s, s, 3s)   T1[x] = (3s, 2s, s, s)
    T2[x] = (s, 3s, 2s, s)   T3[x] = (s, s, 3s, 2s)     with s = SBOX[x]

Each table entry is a column word, big-endian (row 0 in the high byte).
The four column words, each XORed with its round-key word, are packed
into the next state's octets, so no shift or mask is left in a round.
The last round has no MixColumns; it reads the same octets through the
S-box pre-shifted into each row's byte of a word.  Decryption uses the
equivalent inverse cipher: InvMixColumns folded into TD tables plus round
keys transformed by InvMixColumns.  InvShiftRows reads row ``r`` from
column ``(c - r) % 4``, so its columns read octets (0, 13, 10, 7),
(4, 1, 14, 11), (8, 5, 2, 15) and (12, 9, 6, 3).  Key schedules come from
the shared cache in ``repro.primitives.aes`` (one expansion per distinct
key across both backends); the word schedules derived from them, one
4-tuple per round, are cached here as well.
"""

from __future__ import annotations

import struct
import threading
from collections import OrderedDict

from repro.errors import KeyLengthError
from repro.primitives.aes import (
    _INV_SBOX,
    _ROUNDS_BY_KEY_LENGTH,
    _SBOX,
    _gf_multiply,
    expand_key,
)
from repro.primitives.blockcipher import BlockCipher


def _build_encrypt_tables() -> tuple[tuple[int, ...], ...]:
    t0, t1, t2, t3 = [], [], [], []
    for x in range(256):
        s = _SBOX[x]
        s2 = _gf_multiply(s, 2)
        s3 = s2 ^ s
        t0.append(s2 << 24 | s << 16 | s << 8 | s3)
        t1.append(s3 << 24 | s2 << 16 | s << 8 | s)
        t2.append(s << 24 | s3 << 16 | s2 << 8 | s)
        t3.append(s << 24 | s << 16 | s3 << 8 | s2)
    return tuple(t0), tuple(t1), tuple(t2), tuple(t3)


def _build_decrypt_tables() -> tuple[tuple[int, ...], ...]:
    d0, d1, d2, d3 = [], [], [], []
    for x in range(256):
        s = _INV_SBOX[x]
        e9 = _gf_multiply(s, 9)
        e11 = _gf_multiply(s, 11)
        e13 = _gf_multiply(s, 13)
        e14 = _gf_multiply(s, 14)
        d0.append(e14 << 24 | e9 << 16 | e13 << 8 | e11)
        d1.append(e11 << 24 | e14 << 16 | e9 << 8 | e13)
        d2.append(e13 << 24 | e11 << 16 | e14 << 8 | e9)
        d3.append(e9 << 24 | e13 << 16 | e11 << 8 | e14)
    return tuple(d0), tuple(d1), tuple(d2), tuple(d3)


def _shifted(sbox: bytes) -> tuple[tuple[int, ...], ...]:
    """Last-round tables: ``sbox`` shifted into rows 0..3 of a column word."""
    return tuple(tuple(s << shift for s in sbox) for shift in (24, 16, 8, 0))


_T0, _T1, _T2, _T3 = _build_encrypt_tables()
_D0, _D1, _D2, _D3 = _build_decrypt_tables()
_F0, _F1, _F2, _F3 = _shifted(_SBOX)
_G0, _G1, _G2, _G3 = _shifted(_INV_SBOX)

#: A block as its four big-endian column words.
_BLOCK = struct.Struct(">4I")

_Words = tuple[int, int, int, int]
#: Round keys as column words: the first, the middle rounds', the last.
_Schedule = tuple[_Words, tuple[_Words, ...], _Words]


def _inv_mix(words: _Words) -> _Words:
    """InvMixColumns of a round key, column word by column word.

    ``D_r[SBOX[a]]`` is the InvMixColumns column of row ``r`` times ``a``.
    """
    mixed = []
    for w in words:
        a0, a1, a2, a3 = (_SBOX[w >> shift & 255] for shift in (24, 16, 8, 0))
        mixed.append(_D0[a0] ^ _D1[a1] ^ _D2[a2] ^ _D3[a3])
    return tuple(mixed)


_MAX_CACHED_WORD_SCHEDULES = 128

_word_cache: OrderedDict[bytes, tuple[_Schedule, _Schedule]] = OrderedDict()
_word_lock = threading.Lock()


def _word_schedules(key: bytes) -> tuple[_Schedule, _Schedule]:
    """Word schedules (encrypt, equivalent inverse) for ``key``.

    Derived from the shared byte schedule in ``repro.primitives.aes`` —
    deriving does not count as a second key expansion — and cached here so
    repeat constructions are dictionary hits.
    """
    cache_key = bytes(key)
    with _word_lock:
        cached = _word_cache.get(cache_key)
        if cached is not None:
            _word_cache.move_to_end(cache_key)
            return cached
    enc = [_BLOCK.unpack(bytes(flat)) for flat in expand_key(cache_key)]
    dec = enc[::-1]
    schedules = (
        (enc[0], tuple(enc[1:-1]), enc[-1]),
        (dec[0], tuple(_inv_mix(words) for words in dec[1:-1]), dec[-1]),
    )
    with _word_lock:
        _word_cache[cache_key] = schedules
        while len(_word_cache) > _MAX_CACHED_WORD_SCHEDULES:
            _word_cache.popitem(last=False)
    return schedules


def _encrypt(
    block: bytes,
    schedule: _Schedule,
    t0: tuple[int, ...] = _T0,
    t1: tuple[int, ...] = _T1,
    t2: tuple[int, ...] = _T2,
    t3: tuple[int, ...] = _T3,
    f0: tuple[int, ...] = _F0,
    f1: tuple[int, ...] = _F1,
    f2: tuple[int, ...] = _F2,
    f3: tuple[int, ...] = _F3,
    unpack=_BLOCK.unpack,
    pack=_BLOCK.pack,
) -> bytes:
    (k0, k1, k2, k3), middle, (l0, l1, l2, l3) = schedule
    s0, s1, s2, s3 = unpack(block)
    s = pack(s0 ^ k0, s1 ^ k1, s2 ^ k2, s3 ^ k3)
    for k0, k1, k2, k3 in middle:
        x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15 = s
        s = pack(
            t0[x0] ^ t1[x5] ^ t2[x10] ^ t3[x15] ^ k0,
            t0[x4] ^ t1[x9] ^ t2[x14] ^ t3[x3] ^ k1,
            t0[x8] ^ t1[x13] ^ t2[x2] ^ t3[x7] ^ k2,
            t0[x12] ^ t1[x1] ^ t2[x6] ^ t3[x11] ^ k3,
        )
    x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15 = s
    return pack(
        f0[x0] ^ f1[x5] ^ f2[x10] ^ f3[x15] ^ l0,
        f0[x4] ^ f1[x9] ^ f2[x14] ^ f3[x3] ^ l1,
        f0[x8] ^ f1[x13] ^ f2[x2] ^ f3[x7] ^ l2,
        f0[x12] ^ f1[x1] ^ f2[x6] ^ f3[x11] ^ l3,
    )


def _decrypt(
    block: bytes,
    schedule: _Schedule,
    d0: tuple[int, ...] = _D0,
    d1: tuple[int, ...] = _D1,
    d2: tuple[int, ...] = _D2,
    d3: tuple[int, ...] = _D3,
    g0: tuple[int, ...] = _G0,
    g1: tuple[int, ...] = _G1,
    g2: tuple[int, ...] = _G2,
    g3: tuple[int, ...] = _G3,
    unpack=_BLOCK.unpack,
    pack=_BLOCK.pack,
) -> bytes:
    (k0, k1, k2, k3), middle, (l0, l1, l2, l3) = schedule
    s0, s1, s2, s3 = unpack(block)
    s = pack(s0 ^ k0, s1 ^ k1, s2 ^ k2, s3 ^ k3)
    for k0, k1, k2, k3 in middle:
        x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15 = s
        s = pack(
            d0[x0] ^ d1[x13] ^ d2[x10] ^ d3[x7] ^ k0,
            d0[x4] ^ d1[x1] ^ d2[x14] ^ d3[x11] ^ k1,
            d0[x8] ^ d1[x5] ^ d2[x2] ^ d3[x15] ^ k2,
            d0[x12] ^ d1[x9] ^ d2[x6] ^ d3[x3] ^ k3,
        )
    x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15 = s
    return pack(
        g0[x0] ^ g1[x13] ^ g2[x10] ^ g3[x7] ^ l0,
        g0[x4] ^ g1[x1] ^ g2[x14] ^ g3[x11] ^ l1,
        g0[x8] ^ g1[x5] ^ g2[x2] ^ g3[x15] ^ l2,
        g0[x12] ^ g1[x9] ^ g2[x6] ^ g3[x3] ^ l3,
    )


class FastAES(BlockCipher):
    """T-table AES, byte-for-byte equivalent to the reference cipher.

    Reports the same ``name`` as the reference (``aes-128`` etc.) so
    metric counter keys, trace costs, and bench reports are identical
    whichever backend produced them.
    """

    block_size = 16

    def __init__(self, key: bytes) -> None:
        if len(key) not in _ROUNDS_BY_KEY_LENGTH:
            raise KeyLengthError(
                f"AES keys must be 16, 24, or 32 bytes, got {len(key)}"
            )
        self.name = f"aes-{len(key) * 8}"
        self._enc, self._dec = _word_schedules(key)

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            self._check_block(block)
        return _encrypt(block, self._enc)

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            self._check_block(block)
        return _decrypt(block, self._dec)
