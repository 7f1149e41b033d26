"""PMAC (Rogaway), the parallelisable MAC used for associated data in the
paper's "OCB ⊕ PMAC" AEAD option (Sect. 4, reference [10]).

Follows the PMAC definition from Rogaway's OCB/PMAC papers: offsets are
Gray-code multiples of L = E_k(0^n) in GF(2^n); a full final block is
masked with L·x^{-1}, a partial one is 10*-padded.
"""

from __future__ import annotations

from repro.mac.base import MAC
from repro.primitives.blockcipher import BlockCipher
from repro.primitives.util import (
    gf_double,
    gf_halve,
    ntz,
    split_blocks,
    xor_bytes_strict,
)


class PMAC(MAC):
    """PMAC over any block cipher, with optional tag truncation."""

    name = "pmac"

    def __init__(self, cipher: BlockCipher, tag_size: int | None = None) -> None:
        self._cipher = cipher
        block = cipher.block_size
        self.tag_size = tag_size if tag_size is not None else block
        if not 1 <= self.tag_size <= block:
            raise ValueError("tag size must be between 1 and the block size")
        self._l_zero = cipher.encrypt_block(bytes(block))
        self._l_inv = gf_halve(self._l_zero)
        # Precompute L(i) = x^i · L for the offset schedule.
        self._l_table = [self._l_zero]

    @property
    def block_size(self) -> int:
        return self._cipher.block_size

    def _l(self, index: int) -> bytes:
        while len(self._l_table) <= index:
            self._l_table.append(gf_double(self._l_table[-1]))
        return self._l_table[index]

    def tag(self, message: bytes) -> bytes:
        block = self.block_size
        blocks = split_blocks(message, block) if message else [b""]
        offset = bytes(block)
        checksum = bytes(block)
        for i, chunk in enumerate(blocks[:-1], start=1):
            offset = xor_bytes_strict(offset, self._l(ntz(i)))
            checksum = xor_bytes_strict(
                checksum, self._cipher.encrypt_block(xor_bytes_strict(chunk, offset))
            )
        last = blocks[-1]
        if len(last) == block:
            checksum = xor_bytes_strict(checksum, xor_bytes_strict(last, self._l_inv))
        else:
            padded = last + b"\x80" + bytes(block - len(last) - 1)
            checksum = xor_bytes_strict(checksum, padded)
        return self._cipher.encrypt_block(checksum)[: self.tag_size]
