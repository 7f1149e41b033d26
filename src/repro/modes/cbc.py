"""Cipher block chaining mode (NIST SP 800-38A).

This is the mode Kühn chooses to instantiate E for all counter-examples
(Sect. 3, eqs. 8–9): ``C_1 = ENC_k(P_1 ⊕ IV)``,
``C_i = ENC_k(P_i ⊕ C_{i-1})``.  With the default :class:`ZeroIV` policy
this reproduces the paper's deterministic E exactly, including the two
properties every attack relies on:

* equal plaintext prefixes produce equal ciphertext prefixes, and
* decryption error propagation is local — changing ``C_i`` garbles only
  plaintext blocks ``i`` and ``i+1`` (the paper's footnote 4).
"""

from __future__ import annotations

from repro.modes.base import CipherMode
from repro.primitives.util import iter_blocks, xor_bytes_strict


class CBC(CipherMode):
    """CBC mode with a pluggable IV policy (zero IV by default, as in §3)."""

    name = "cbc"

    def encrypt_blocks(self, padded_plaintext: bytes, iv: bytes) -> bytes:
        self._check_aligned(padded_plaintext)
        previous = iv
        out = bytearray()
        for block in iter_blocks(padded_plaintext, self.block_size):
            previous = self._cipher.encrypt_block(xor_bytes_strict(block, previous))
            out += previous
        return bytes(out)

    def decrypt_blocks(self, ciphertext: bytes, iv: bytes) -> bytes:
        self._check_aligned(ciphertext)
        previous = iv
        out = bytearray()
        for block in iter_blocks(ciphertext, self.block_size):
            out += xor_bytes_strict(self._cipher.decrypt_block(block), previous)
            previous = block
        return bytes(out)
