"""OCB ⊕ PMAC — the one-pass AEAD option of the paper's fix.

The paper's Sect. 4 cites "OCB ⊕ PMAC [10]", i.e. Rogaway's generic
construction of AEAD from the OCB authenticated-encryption mode plus
PMAC over the associated data: the AEAD tag is the OCB tag XORed with
``PMAC_K(H)`` (CCS 2002, "Authenticated-encryption with
associated-data").  The encryption core below is OCB1 (Rogaway, Bellare,
Black, Krovetz 2001):

    L = E_K(0^n);  R = E_K(N ⊕ L);  Z[i] = γ-offsets from L and R
    C[i]   = E_K(M[i] ⊕ Z[i]) ⊕ Z[i]                       (i < m)
    Y[m]   = E_K(len(M[m]) ⊕ L·x^{-1} ⊕ Z[m]);  C[m] = M[m] ⊕ Y[m]
    T      = E_K(Checksum ⊕ Z[m]) ⊕ PMAC_K(H), truncated

Cost: about n + m + 4 blockcipher calls for n plaintext and m header
blocks (the paper states n + m + 5; the off-by-one is whether E_K(0^n)
is charged once or twice — benchmark T-P reports the exact measured
counts and the marginal costs, which match the paper's: +1 per
plaintext block, +1 per header block).
"""

from __future__ import annotations

from repro.aead.base import AEAD
from repro.mac.pmac import PMAC
from repro.primitives.blockcipher import BlockCipher
from repro.primitives.util import (
    constant_time_equal,
    gf_double,
    gf_halve,
    int_to_bytes,
    ntz,
    split_blocks,
    xor_bytes,
    xor_bytes_strict,
)


class OCB(AEAD):
    """OCB1 encryption with PMAC-authenticated associated data."""

    name = "ocb-pmac"

    def __init__(self, cipher: BlockCipher, tag_size: int | None = None) -> None:
        self._cipher = cipher
        block = cipher.block_size
        self.nonce_size = block
        self.tag_size = tag_size if tag_size is not None else block
        if not 1 <= self.tag_size <= block:
            raise ValueError("tag size must be between 1 and the block size")
        self._l_zero = cipher.encrypt_block(bytes(block))
        self._l_inv = gf_halve(self._l_zero)
        self._l_table = [self._l_zero]
        # PMAC shares the cipher; it recomputes E_K(0) itself, which is the
        # second of the reusable precomputation calls.
        self._pmac = PMAC(cipher)
        self._empty_header_tag = self._pmac.tag(b"")

    @property
    def block_size(self) -> int:
        return self._cipher.block_size

    def _l(self, index: int) -> bytes:
        while len(self._l_table) <= index:
            self._l_table.append(gf_double(self._l_table[-1]))
        return self._l_table[index]

    def _core(self, nonce: bytes, data: bytes, decrypting: bool) -> tuple[bytes, bytes]:
        """Shared OCB1 body; returns (output, raw_tag_before_header)."""
        block = self.block_size
        offset = self._cipher.encrypt_block(xor_bytes_strict(nonce, self._l_zero))
        chunks = split_blocks(data, block) if data else [b""]
        checksum = bytes(block)
        out = bytearray()

        for i, chunk in enumerate(chunks[:-1], start=1):
            offset = xor_bytes_strict(offset, self._l(ntz(i)))
            if decrypting:
                plain = xor_bytes_strict(
                    self._cipher.decrypt_block(xor_bytes_strict(chunk, offset)), offset
                )
                out += plain
                checksum = xor_bytes_strict(checksum, plain)
            else:
                checksum = xor_bytes_strict(checksum, chunk)
                out += xor_bytes_strict(
                    self._cipher.encrypt_block(xor_bytes_strict(chunk, offset)), offset
                )

        final = chunks[-1]
        offset = xor_bytes_strict(offset, self._l(ntz(len(chunks))))
        length_block = int_to_bytes(len(final) * 8, block)
        pad = self._cipher.encrypt_block(
            xor_bytes_strict(xor_bytes_strict(length_block, self._l_inv), offset)
        )
        final_out = xor_bytes(final, pad[: len(final)])
        out += final_out
        final_cipher = final if decrypting else final_out
        # OCB1 checksum folds in C[m]0* ⊕ Y[m] (= M[m] ∥ Y[m] tail bytes).
        checksum = xor_bytes_strict(
            checksum, xor_bytes_strict(final_cipher.ljust(block, b"\x00"), pad)
        )
        raw_tag = self._cipher.encrypt_block(xor_bytes_strict(checksum, offset))
        return bytes(out), raw_tag

    def encrypt(self, nonce: bytes, plaintext: bytes, header: bytes = b"") -> tuple[bytes, bytes]:
        self._check_nonce(nonce)
        ciphertext, raw_tag = self._core(nonce, plaintext, decrypting=False)
        header_tag = self._pmac.tag(header) if header else self._empty_header_tag
        tag = xor_bytes_strict(raw_tag, header_tag)
        return ciphertext, tag[: self.tag_size]

    def decrypt(self, nonce: bytes, ciphertext: bytes, tag: bytes, header: bytes = b"") -> bytes:
        self._check_nonce(nonce)
        plaintext, raw_tag = self._core(nonce, ciphertext, decrypting=True)
        header_tag = self._pmac.tag(header) if header else self._empty_header_tag
        expected = xor_bytes_strict(raw_tag, header_tag)
        if not constant_time_equal(expected[: self.tag_size], tag):
            raise self._invalid()
        return plaintext
