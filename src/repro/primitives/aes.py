"""AES-128/192/256 implemented from scratch (FIPS 197).

The paper's schemes name AES as a suggested instantiation of the cell
encryption function E (Sect. 2.2), and all counter-examples in Sect. 3
assume its 16-octet block size.  This implementation derives the S-box
from GF(2^8) arithmetic at import time instead of embedding opaque
tables, and is validated against the FIPS 197 appendix vectors in the
test suite.

This is a reference implementation optimised for clarity and auditability,
not speed; the benchmark harness measures block-cipher *invocation counts*
(Sect. 4 of the paper), which are implementation independent.  The key
schedule, however, is a pure function of the key bytes and is cached at
module level: constructing many cipher instances over the same key (one
per cell codec, AEAD subkey, or batch) costs one expansion per distinct
key, not one per instance.  ``repro.primitives.aes_fast`` reuses the same
cache for its packed T-table schedules.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.errors import KeyLengthError
from repro.primitives.blockcipher import BlockCipher

_ROUNDS_BY_KEY_LENGTH = {16: 10, 24: 12, 32: 14}


def _gf_multiply(a: int, b: int) -> int:
    """Multiplication in GF(2^8) modulo x^8 + x^4 + x^3 + x + 1."""
    product = 0
    for _ in range(8):
        if b & 1:
            product ^= a
        high = a & 0x80
        a = (a << 1) & 0xFF
        if high:
            a ^= 0x1B
        b >>= 1
    return product


def _build_sbox() -> tuple[bytes, bytes]:
    """Construct the AES S-box as inversion in GF(2^8) plus affine map."""
    # Exp/log tables over generator 3 give fast inverses.
    exp = [0] * 256
    log = [0] * 256
    value = 1
    for i in range(255):
        exp[i] = value
        log[value] = i
        value = _gf_multiply(value, 3)
    exp[255] = exp[0]

    sbox = bytearray(256)
    inverse_sbox = bytearray(256)
    for x in range(256):
        inv = 0 if x == 0 else exp[255 - log[x]]
        y = inv
        result = 0x63
        for shift in (0, 1, 2, 3, 4):
            rotated = ((y << shift) | (y >> (8 - shift))) & 0xFF
            result ^= rotated
        sbox[x] = result
        inverse_sbox[result] = x
    return bytes(sbox), bytes(inverse_sbox)


_SBOX, _INV_SBOX = _build_sbox()

_RCON = [0x01]
while len(_RCON) < 14:
    _RCON.append(_gf_multiply(_RCON[-1], 2))

# One 256-entry product table per MixColumns / InvMixColumns coefficient,
# built from _gf_multiply: each field multiplication of a column mix is
# then one table lookup instead of an eight-step loop.
_MUL2, _MUL3, _MUL9, _MUL11, _MUL13, _MUL14 = (
    bytes(_gf_multiply(x, factor) for x in range(256))
    for factor in (2, 3, 9, 11, 13, 14)
)


# -- cached key schedule ------------------------------------------------------
#
# Historically every AES instance re-ran the full FIPS 197 expansion in its
# constructor, so a batch that built N wrappers over the same key paid N
# expansions.  The schedule depends only on the key bytes, so it is computed
# once per distinct key and shared; the regression test in
# ``tests/primitives/test_backends.py`` pins the one-expansion-per-key
# contract.

_MAX_CACHED_SCHEDULES = 128

_schedule_cache: OrderedDict[bytes, tuple[tuple[int, ...], ...]] = OrderedDict()
_schedule_lock = threading.Lock()
_expansion_count = 0


def key_schedule_expansions() -> int:
    """Full key expansions run since import (or the last cache clear)."""
    return _expansion_count


def clear_key_schedule_cache() -> None:
    """Drop every cached schedule and zero the expansion counter (tests)."""
    global _expansion_count
    with _schedule_lock:
        _schedule_cache.clear()
        _expansion_count = 0


def _expand_key_schedule(key: bytes) -> tuple[tuple[int, ...], ...]:
    """FIPS 197 key expansion into per-round 16-byte column-major keys."""
    rounds = _ROUNDS_BY_KEY_LENGTH[len(key)]
    nk = len(key) // 4
    total_words = 4 * (rounds + 1)
    words: list[list[int]] = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
    for i in range(nk, total_words):
        temp = list(words[i - 1])
        if i % nk == 0:
            temp = temp[1:] + temp[:1]
            temp = [_SBOX[b] for b in temp]
            temp[0] ^= _RCON[i // nk - 1]
        elif nk > 6 and i % nk == 4:
            temp = [_SBOX[b] for b in temp]
        words.append([a ^ b for a, b in zip(words[i - nk], temp)])
    # Group words into per-round 16-byte keys, flattened column-major.
    round_keys = []
    for round_index in range(rounds + 1):
        flat: list[int] = []
        for word in words[4 * round_index : 4 * round_index + 4]:
            flat.extend(word)
        round_keys.append(tuple(flat))
    return tuple(round_keys)


def expand_key(key: bytes) -> tuple[tuple[int, ...], ...]:
    """The cached AES key schedule for ``key``.

    Expansion runs at most once per distinct key; later lookups (including
    from the optimized backend, which derives its packed word schedules
    from this result) are dictionary hits.
    """
    global _expansion_count
    if len(key) not in _ROUNDS_BY_KEY_LENGTH:
        raise KeyLengthError(f"AES keys must be 16, 24, or 32 bytes, got {len(key)}")
    cache_key = bytes(key)
    with _schedule_lock:
        cached = _schedule_cache.get(cache_key)
        if cached is not None:
            _schedule_cache.move_to_end(cache_key)
            return cached
        schedule = _expand_key_schedule(cache_key)
        _expansion_count += 1
        _schedule_cache[cache_key] = schedule
        while len(_schedule_cache) > _MAX_CACHED_SCHEDULES:
            _schedule_cache.popitem(last=False)
        return schedule


class AES(BlockCipher):
    """The AES block cipher with 128-, 192-, or 256-bit keys."""

    block_size = 16

    def __init__(self, key: bytes) -> None:
        if len(key) not in _ROUNDS_BY_KEY_LENGTH:
            raise KeyLengthError(
                f"AES keys must be 16, 24, or 32 bytes, got {len(key)}"
            )
        self._rounds = _ROUNDS_BY_KEY_LENGTH[len(key)]
        self.name = f"aes-{len(key) * 8}"
        self._round_keys = expand_key(key)

    # -- state helpers ----------------------------------------------------

    @staticmethod
    def _add_round_key(state: list[int], round_key: tuple[int, ...]) -> None:
        for i in range(16):
            state[i] ^= round_key[i]

    @staticmethod
    def _sub_bytes(state: list[int], box: bytes) -> None:
        for i in range(16):
            state[i] = box[state[i]]

    @staticmethod
    def _shift_rows(state: list[int]) -> None:
        # State is column-major: byte (row r, column c) lives at 4*c + r.
        for r in range(1, 4):
            row = [state[4 * c + r] for c in range(4)]
            row = row[r:] + row[:r]
            for c in range(4):
                state[4 * c + r] = row[c]

    @staticmethod
    def _inv_shift_rows(state: list[int]) -> None:
        for r in range(1, 4):
            row = [state[4 * c + r] for c in range(4)]
            row = row[-r:] + row[:-r]
            for c in range(4):
                state[4 * c + r] = row[c]

    @staticmethod
    def _mix_columns(state: list[int]) -> None:
        for c in range(0, 16, 4):
            a0, a1, a2, a3 = state[c : c + 4]
            state[c + 0] = _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3
            state[c + 1] = a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3
            state[c + 2] = a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3]
            state[c + 3] = _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3]

    @staticmethod
    def _inv_mix_columns(state: list[int]) -> None:
        for c in range(0, 16, 4):
            a0, a1, a2, a3 = state[c : c + 4]
            state[c + 0] = _MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3]
            state[c + 1] = _MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3]
            state[c + 2] = _MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3]
            state[c + 3] = _MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3]

    # -- public API ---------------------------------------------------------

    def encrypt_block(self, block: bytes) -> bytes:
        self._check_block(block)
        state = list(block)
        self._add_round_key(state, self._round_keys[0])
        for round_index in range(1, self._rounds):
            self._sub_bytes(state, _SBOX)
            self._shift_rows(state)
            self._mix_columns(state)
            self._add_round_key(state, self._round_keys[round_index])
        self._sub_bytes(state, _SBOX)
        self._shift_rows(state)
        self._add_round_key(state, self._round_keys[self._rounds])
        return bytes(state)

    def decrypt_block(self, block: bytes) -> bytes:
        self._check_block(block)
        state = list(block)
        self._add_round_key(state, self._round_keys[self._rounds])
        for round_index in range(self._rounds - 1, 0, -1):
            self._inv_shift_rows(state)
            self._sub_bytes(state, _INV_SBOX)
            self._add_round_key(state, self._round_keys[round_index])
            self._inv_mix_columns(state)
        self._inv_shift_rows(state)
        self._sub_bytes(state, _INV_SBOX)
        self._add_round_key(state, self._round_keys[0])
        return bytes(state)
