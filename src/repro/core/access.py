"""Key-enforced discretionary access control.

The threat model description the paper inherits from [12] includes
"methods to implement discretionary access control" built on the key
material (Sect. 2.1).  With one AEAD key *per column*, access control
stops being a policy the server promises to enforce and becomes
cryptography: a user holds exactly the column keys they were granted,
and ungranted cells are indistinguishable from random noise to them.

Components:

* :class:`ColumnKeyedCellScheme` — a cell codec deriving an independent
  AEAD key per (table, column) from the master key.  Drop-in replacement
  for the single-key :class:`~repro.core.cellcrypto.AeadCellScheme`
  (enable with ``EncryptionConfig(per_column_keys=True)``).
* :class:`AccessController` — the key owner's grant registry.
* :class:`UserCredential` — what a grantee actually receives: derived
  keys for granted columns, nothing else.  Reading an ungranted column
  fails exactly like tampering does (``invalid``), so the storage layer
  cannot even distinguish "no permission" probing from attack traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.aead.base import AEAD, StoredEntry
from repro.core.keys import KeyRing
from repro.engine.database import CellCodec, Database
from repro.engine.table import CellAddress
from repro.errors import AuthenticationError, SchemaError
from repro.primitives.rng import CountingNonceSource


def _column_purpose(table_id: int, column: int) -> str:
    return f"dac/table-{table_id}/column-{column}"


class ColumnKeyedCellScheme(CellCodec):
    """AEAD cell encryption under per-(table, column) derived keys.

    The stored format is identical to the single-key fixed scheme
    (eq. 23): (N, C, T) with the cell address as associated data — only
    the key derivation differs, so all Sect. 4 security and overhead
    analysis carries over unchanged.
    """

    name = "aead-cell/per-column"
    deterministic = False

    def __init__(self, keys: KeyRing, aead_factory, nonce_size: int = 16) -> None:
        """``aead_factory(key: bytes) -> AEAD`` builds the per-column AEADs."""
        self._keys = keys
        self._aead_factory = aead_factory
        self._nonce_size = nonce_size
        self._aeads: dict[tuple[int, int], AEAD] = {}
        self._nonces: dict[tuple[int, int], CountingNonceSource] = {}

    def column_key(self, table_id: int, column: int) -> bytes:
        return self._keys.derive(_column_purpose(table_id, column))

    def _aead_for(self, table_id: int, column: int) -> AEAD:
        slot = (table_id, column)
        if slot not in self._aeads:
            self._aeads[slot] = self._aead_factory(self.column_key(*slot))
        return self._aeads[slot]

    def _nonces_for(self, table_id: int, column: int) -> CountingNonceSource:
        slot = (table_id, column)
        if slot not in self._nonces:
            self._nonces[slot] = CountingNonceSource(self._nonce_size)
        return self._nonces[slot]

    def encode_cell(self, plaintext: bytes, address: CellAddress) -> bytes:
        aead = self._aead_for(address.table, address.column)
        nonce = self._nonces_for(address.table, address.column).next()
        ciphertext, tag = aead.encrypt(nonce, plaintext, address.encode())
        return StoredEntry(nonce, ciphertext, tag).to_bytes()

    def decode_cell(self, stored: bytes, address: CellAddress) -> bytes:
        try:
            entry = StoredEntry.from_bytes(stored)
        except ValueError:
            raise AuthenticationError("invalid") from None
        aead = self._aead_for(address.table, address.column)
        return aead.decrypt(entry.nonce, entry.ciphertext, entry.tag, address.encode())


@dataclass(frozen=True)
class Grant:
    """One (user, table, column) permission."""

    user: str
    table: str
    column: str


class UserCredential:
    """The derived key material one user actually holds.

    Built by :meth:`AccessController.credential_for`; contains per-column
    AEADs for granted columns only.  There is no reference back to the
    master key ring — leaking a credential leaks exactly its grants.
    """

    def __init__(
        self, user: str, aeads: dict[tuple[int, int], AEAD],
        names: dict[tuple[str, str], tuple[int, int]],
    ) -> None:
        self.user = user
        self._aeads = aeads
        self._names = names

    @property
    def granted_columns(self) -> list[tuple[str, str]]:
        return sorted(self._names)

    def can_read(self, table: str, column: str) -> bool:
        return (table, column) in self._names

    def decrypt_cell(
        self, stored: bytes, table: str, column: str, address: CellAddress
    ) -> bytes:
        """Decrypt a stored cell with this credential's keys.

        Raises the same opaque ``invalid`` for missing grants as for
        tampered data — an observer cannot tell which.
        """
        slot = self._names.get((table, column))
        if slot is None:
            raise AuthenticationError("invalid")
        try:
            entry = StoredEntry.from_bytes(stored)
        except ValueError:
            raise AuthenticationError("invalid") from None
        return self._aeads[slot].decrypt(
            entry.nonce, entry.ciphertext, entry.tag, address.encode()
        )


class AccessController:
    """Grant registry held by the key owner (the client of Sect. 2.1)."""

    def __init__(self, db: Database, scheme: ColumnKeyedCellScheme, aead_factory) -> None:
        if db.cell_codec is not scheme:
            raise SchemaError(
                "the database must use the ColumnKeyedCellScheme being granted from"
            )
        self._db = db
        self._scheme = scheme
        self._aead_factory = aead_factory
        self._grants: set[Grant] = set()

    def grant(self, user: str, table: str, column: str) -> Grant:
        table_obj = self._db.table(table)      # validates the table name
        table_obj.schema.column_index(column)  # validates the column name
        grant = Grant(user, table, column)
        self._grants.add(grant)
        return grant

    def revoke(self, user: str, table: str, column: str) -> bool:
        """Forget a grant.

        Note the classic caveat (true of every key-based DAC): revocation
        stops *future* credential issuance; credentials already handed
        out keep working until the column key is rotated.
        """
        grant = Grant(user, table, column)
        if grant in self._grants:
            self._grants.remove(grant)
            return True
        return False

    def grants_for(self, user: str) -> list[Grant]:
        return sorted(
            (g for g in self._grants if g.user == user),
            key=lambda g: (g.table, g.column),
        )

    def credential_for(self, user: str) -> UserCredential:
        """Derive and package the user's column keys."""
        aeads: dict[tuple[int, int], AEAD] = {}
        names: dict[tuple[str, str], tuple[int, int]] = {}
        for grant in self.grants_for(user):
            table = self._db.table(grant.table)
            column_pos = table.schema.column_index(grant.column)
            slot = (table.table_id, column_pos)
            aeads[slot] = self._aead_factory(
                self._scheme.column_key(table.table_id, column_pos)
            )
            names[(grant.table, grant.column)] = slot
        return UserCredential(user, aeads, names)
