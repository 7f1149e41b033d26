"""The fixed cell encryption scheme (paper eqs. 23–24).

"For encrypting (under a key k ∈ K) a value V for a cell with address
Ref_T = (t, r, c), a unique nonce N is generated, and we store
(N, C, T) with (C, T) = AEAD-Enc_k(N, V, Ref_T)."  Decryption runs
AEAD-Dec_k(N, C, T, Ref_T) and raises on ``invalid``.

The cell address is the *associated data*: authenticated, never stored.
Confidentiality reduces to the AEAD's IND$ security (no pattern
matching, no correlation), and data+position authenticity to its
INT-CTXT security (no modification, substitution, or relocation) —
Sect. 4, Security Analysis.
"""

from __future__ import annotations

from repro.aead.base import AEAD, StoredEntry
from repro.core.cellcrypto.base import CellScheme
from repro.engine.table import CellAddress
from repro.errors import AuthenticationError


class AeadCellScheme(CellScheme):
    """Nonce-based AEAD cell encryption with the address as header."""

    name = "aead-cell"
    deterministic = False

    def __init__(self, aead: AEAD, nonce_source) -> None:
        self._aead = aead
        self._nonces = nonce_source

    @property
    def aead(self) -> AEAD:
        return self._aead

    def encode_cell(self, plaintext: bytes, address: CellAddress) -> bytes:
        nonce = self._nonces.next()
        ciphertext, tag = self._aead.encrypt(nonce, plaintext, address.encode())
        return StoredEntry(nonce, ciphertext, tag).to_bytes()

    def decode_cell(self, stored: bytes, address: CellAddress) -> bytes:
        try:
            entry = StoredEntry.from_bytes(stored)
        except ValueError:
            # Malformed framing is tampering too; same opaque failure.
            raise AuthenticationError("invalid") from None
        return self._aead.decrypt(
            entry.nonce, entry.ciphertext, entry.tag, address.encode()
        )

    def storage_overhead(self) -> int:
        """Octets of per-cell overhead: nonce + tag (Sect. 4 metric)."""
        nonce_size = self._nonces.size
        return nonce_size + self._aead.tag_size
