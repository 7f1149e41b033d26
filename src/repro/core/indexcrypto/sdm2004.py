"""The index encryption scheme of [3] (paper §2.3, eqs. 4–5).

"Given a row r_I in the index containing data V held in row r of the
indexed table, it is stored in encrypted form as

    E_k(V ∥ r_I)        for inner nodes,
    E_k((V, r) ∥ r_I)   for leaf nodes."

Only the key payload is encrypted; the structure (children, siblings)
stays plaintext.  Integrity rests entirely on the embedded r_I matching
the row the entry is read from — which Sect. 3.2 shows is defeated by
the same CBC cut-and-paste mechanics as the cell Append-Scheme, and the
deterministic E leaks index↔table correlations because the cell
plaintext ``V ∥ µ(t,r,c)`` and the index plaintext ``V ∥ r_I`` share the
prefix V (attack E4).
"""

from __future__ import annotations

from repro.engine.codec import EntryRefs, IndexEntryCodec
from repro.errors import AuthenticationError
from repro.modes.base import CipherMode

_ROW_WIDTH = 8


class SDM2004IndexCodec(IndexEntryCodec):
    """The [3] index entry format over a (deterministic) cipher mode."""

    name = "sdm2004"

    def __init__(self, mode: CipherMode) -> None:
        self._mode = mode

    @property
    def mode(self) -> CipherMode:
        return self._mode

    def plaintext_for(
        self, key: bytes, table_row: int | None, refs: EntryRefs
    ) -> bytes:
        """The exact plaintext handed to E — exposed because the attacks
        of Sect. 3.2 reason about its block decomposition."""
        row_ref = refs.row_id.to_bytes(_ROW_WIDTH, "big")
        if refs.is_leaf:
            if table_row is None:
                raise ValueError("leaf entries require a table row (eq. 5)")
            return key + table_row.to_bytes(_ROW_WIDTH, "big") + row_ref
        return key + row_ref

    def encode(self, key: bytes, table_row: int | None, refs: EntryRefs) -> bytes:
        return self._mode.encrypt(self.plaintext_for(key, table_row, refs))

    def logical(
        self, key: bytes, table_row: int | None, refs: EntryRefs
    ) -> tuple[bytes, int | None]:
        # Inner entries store no table row (eq. 4).
        return key, table_row if refs.is_leaf else None

    def decode(self, payload: bytes, refs: EntryRefs) -> tuple[bytes, int | None]:
        plaintext = self._mode.decrypt(payload)
        if len(plaintext) < _ROW_WIDTH:
            raise AuthenticationError("index entry too short")
        embedded_row = int.from_bytes(plaintext[-_ROW_WIDTH:], "big")
        if embedded_row != refs.row_id:
            # The only integrity [3] provides: the self-reference check.
            raise AuthenticationError(
                f"index row mismatch: entry claims r_I={embedded_row}, "
                f"stored at r_I={refs.row_id}"
            )
        body = plaintext[:-_ROW_WIDTH]
        if refs.is_leaf:
            if len(body) < _ROW_WIDTH:
                raise AuthenticationError("leaf entry too short")
            table_row = int.from_bytes(body[-_ROW_WIDTH:], "big")
            return body[:-_ROW_WIDTH], table_row
        return body, None
