"""The encrypted database facade: engine + schemes + keys in one object.

This is the top of the public API.  An :class:`EncryptedDatabase` is a
:class:`~repro.engine.database.Database` whose cell codec and index
codec factory are built from an :class:`EncryptionConfig` — one switch
per design decision the paper analyses:

* ``cell_scheme``  — ``"xor"`` (eq. 1), ``"append"`` (eq. 2),
  ``"aead"`` (eqs. 23–24), or ``"plain"``.
* ``index_scheme`` — ``"sdm2004"`` (eqs. 4–5), ``"dbsec2005"`` (eq. 7),
  ``"aead"`` (eqs. 25–26), or ``"plain"``.
* ``iv_policy``    — ``"zero"`` reproduces the paper's deterministic E
  (the Sect. 3 counter-examples); ``"random"`` is the ablation.
* ``mac_shared_key`` / ``faithful_leaf_bug`` — the two [12] pathologies
  (Sect. 3.3 / footnote 1).
* ``aead`` — which Sect. 4 AEAD to fix with (eax, ocb, ccfb, gcm, siv).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.aead import CCFB, EAX, GCM, OCB, SIV
from repro.aead.base import AEAD
from repro.core.address import HashMu, KeyedMu, Mu
from repro.core.cellcrypto import (
    AeadCellScheme,
    AppendScheme,
    Validator,
    XorScheme,
    no_validator,
)
from repro.core.indexcrypto import (
    AeadIndexCodec,
    DBSec2005IndexCodec,
    SDM2004IndexCodec,
)
from repro.core.keys import KeyRing
from repro.engine.codec import IndexEntryCodec, PlainEntryCodec
from repro.engine.database import CellCodec, Database, PlainCellCodec
from repro.errors import SchemaError
from repro.mac.omac import OMAC
from repro.modes.base import RandomIV, ZeroIV
from repro.modes.cbc import CBC
from repro.observability import (
    maybe_audit_cell_codec,
    maybe_audit_index_codec,
    maybe_audit_mac,
    maybe_instrument_aead,
    maybe_instrument_cipher,
    maybe_instrument_mac,
)
from repro.primitives.backends import available_backends, make_cipher
from repro.primitives.rng import (
    CountingNonceSource,
    DeterministicRandom,
    RandomSource,
)

_CELL_SCHEMES = ("plain", "xor", "append", "aead")
_INDEX_SCHEMES = ("plain", "sdm2004", "dbsec2005", "aead")
_AEADS = ("eax", "ocb", "ccfb", "gcm", "siv")
_IV_POLICIES = ("zero", "random")
_CIPHERS = ("aes", "des", "3des")


@dataclass(frozen=True)
class EncryptionConfig:
    """Every switch the paper's analysis turns."""

    cell_scheme: str = "aead"
    index_scheme: str = "aead"
    aead: str = "eax"
    iv_policy: str = "zero"
    mac_shared_key: bool = True
    faithful_leaf_bug: bool = True
    mu_keyed: bool = False
    randomness_size: int = 8
    xor_validator: Validator = no_validator
    #: Derive an independent AEAD key per (table, column), enabling the
    #: key-based discretionary access control of [12]'s model (see
    #: :mod:`repro.core.access`).  AEAD cell scheme only.
    per_column_keys: bool = False
    #: Block cipher for the legacy [3]/[12] schemes.  The paper names
    #: both DES and AES (Sect. 2.2); the substitution attack's cost is
    #: 2^b for b-octet blocks, so DES (b = 8) is dramatically weaker.
    #: The AEAD fix always runs over AES (its schemes need 128-bit blocks).
    cipher: str = "aes"
    #: Block-cipher *backend* (implementation) from the pluggable registry
    #: in :mod:`repro.primitives.backends`: ``"pure"`` (reference),
    #: ``"optimized"`` (T-table AES), or any registered name.  ``None``
    #: defers to ``set_default_backend`` / ``$REPRO_CIPHER_BACKEND`` /
    #: ``"pure"``.  Backends are byte-for-byte interchangeable; the CI
    #: parity matrix enforces it.
    backend: str | None = None

    def validate(self) -> None:
        if self.cell_scheme not in _CELL_SCHEMES:
            raise SchemaError(f"cell_scheme must be one of {_CELL_SCHEMES}")
        if self.index_scheme not in _INDEX_SCHEMES:
            raise SchemaError(f"index_scheme must be one of {_INDEX_SCHEMES}")
        if self.aead not in _AEADS:
            raise SchemaError(f"aead must be one of {_AEADS}")
        if self.iv_policy not in _IV_POLICIES:
            raise SchemaError(f"iv_policy must be one of {_IV_POLICIES}")
        if self.cipher not in _CIPHERS:
            raise SchemaError(f"cipher must be one of {_CIPHERS}")
        if self.backend is not None and self.backend not in available_backends():
            raise SchemaError(
                f"backend must be one of {available_backends()} (or None)"
            )

    @classmethod
    def paper_broken(cls, cell_scheme: str = "append", index_scheme: str = "sdm2004") -> "EncryptionConfig":
        """The configurations Sect. 3 attacks: deterministic E, shared keys,
        faithful leaf bug."""
        return cls(
            cell_scheme=cell_scheme,
            index_scheme=index_scheme,
            iv_policy="zero",
            mac_shared_key=True,
            faithful_leaf_bug=True,
        )

    @classmethod
    def paper_fixed(cls, aead: str = "eax") -> "EncryptionConfig":
        """The Sect. 4 fix: AEAD everywhere, addresses as associated data."""
        return cls(cell_scheme="aead", index_scheme="aead", aead=aead)

    def with_(self, **changes: Any) -> "EncryptionConfig":
        """Functional update helper for ablations."""
        return replace(self, **changes)


def _make_aead(name: str, key: bytes, backend: str | None = None) -> AEAD:
    # When observability is enabled at construction time, the underlying
    # AES is wrapped so every raw blockcipher invocation — the paper's
    # Sect. 4 unit of account — lands in the metrics registry.  The
    # backend only picks an implementation; every backend emits the same
    # bytes and the same counter names.
    def aes(k: bytes):
        return maybe_instrument_cipher(make_cipher("aes", k, backend=backend))

    if name == "eax":
        return maybe_instrument_aead(EAX(aes(key)))
    if name == "ocb":
        return maybe_instrument_aead(OCB(aes(key)))
    if name == "ccfb":
        return maybe_instrument_aead(CCFB(aes(key)))
    if name == "gcm":
        return maybe_instrument_aead(GCM(aes(key)))
    if name == "siv":
        # SIV needs two subkeys; stretch deterministically from the one key.
        from repro.primitives.hmac import hmac_sha256

        return maybe_instrument_aead(
            SIV(aes(key), aes(hmac_sha256(key, b"siv-ctr")[:16]))
        )
    raise SchemaError(f"unknown AEAD {name!r}")


def _nonce_size_for(aead: AEAD) -> int:
    return aead.nonce_size if aead.nonce_size is not None else 16


class EncryptedDatabase(Database):
    """A Database whose storage is protected per an :class:`EncryptionConfig`.

    All query/DML methods are inherited from
    :class:`~repro.engine.database.Database`; this class only assembles
    the cryptographic plumbing (and offers the adversary's storage view
    for the attack framework).
    """

    def __init__(
        self,
        master_key: bytes,
        config: EncryptionConfig | None = None,
        rng: RandomSource | None = None,
    ) -> None:
        self.config = config if config is not None else EncryptionConfig()
        self.config.validate()
        self.keys = KeyRing(master_key)
        self._rng = rng if rng is not None else DeterministicRandom(master_key)

        cell_codec = self._build_cell_codec()
        super().__init__(
            cell_codec=cell_codec,
            index_codec_factory=self._build_index_codec,
        )

    # -- scheme assembly -----------------------------------------------------

    def _legacy_key(self) -> bytes:
        """The single key k of [3]/[12].

        The original schemes encrypt cells AND index entries under the
        same k — which is what lets Sect. 3.2/3.3 correlate index and
        table ciphertexts, and what the Sect. 3.3 MAC interaction needs.
        The AEAD fix uses properly separated per-purpose keys instead.
        """
        return self.keys.derive("legacy-k")

    def _mu(self) -> Mu:
        # µ is truncated to the legacy cipher's block size, as [3]
        # suggests ("if necessary shortened to the block size").
        size = self._legacy_cipher(self.keys.mu_key()).block_size
        if self.config.mu_keyed:
            return KeyedMu(self.keys.mu_key(), size=size)
        return HashMu(size=size)

    def _legacy_cipher(self, key: bytes):
        """Block cipher instance for the [3]/[12] schemes."""
        backend = self.config.backend
        if self.config.cipher == "des":
            cipher = make_cipher("des", key[:8], backend=backend)
        elif self.config.cipher == "3des":
            cipher = make_cipher("3des", key + key[:8], backend=backend)
        else:
            cipher = make_cipher("aes", key, backend=backend)
        return maybe_instrument_cipher(cipher)

    def _mode(self, key: bytes):
        """The deterministic-or-random E the [3]/[12] schemes run over."""
        cipher = self._legacy_cipher(key)
        if self.config.iv_policy == "zero":
            return CBC(cipher, ZeroIV())
        return CBC(cipher, RandomIV(self._rng.fork("cbc-iv")))

    def _build_cell_codec(self) -> CellCodec:
        # The audit wrapper is a byte-exact pass-through (and a no-op
        # unless AUDIT is enabled at construction), like maybe_instrument_*.
        return maybe_audit_cell_codec(self._make_cell_codec())

    def _make_cell_codec(self) -> CellCodec:
        scheme = self.config.cell_scheme
        if scheme == "plain":
            return PlainCellCodec()
        if scheme == "xor":
            return XorScheme(
                self._mode(self._legacy_key()),
                self._mu(),
                validator=self.config.xor_validator,
            )
        if scheme == "append":
            return AppendScheme(self._mode(self._legacy_key()), self._mu())
        if self.config.per_column_keys:
            from repro.core.access import ColumnKeyedCellScheme

            def factory(key: bytes) -> AEAD:
                return _make_aead(self.config.aead, key, backend=self.config.backend)

            probe = _make_aead(self.config.aead, bytes(16), backend=self.config.backend)
            return ColumnKeyedCellScheme(
                self.keys, factory, nonce_size=_nonce_size_for(probe)
            )
        aead = _make_aead(
            self.config.aead, self.keys.cell_key(), backend=self.config.backend
        )
        return AeadCellScheme(aead, CountingNonceSource(_nonce_size_for(aead)))

    def _build_index_codec(
        self, index_table_id: int, table_id: int, column_pos: int
    ) -> IndexEntryCodec:
        return maybe_audit_index_codec(
            self._make_index_codec(index_table_id, table_id, column_pos),
            index_table_id,
            table_id,
            column_pos,
        )

    def _make_index_codec(
        self, index_table_id: int, table_id: int, column_pos: int
    ) -> IndexEntryCodec:
        scheme = self.config.index_scheme
        if scheme == "plain":
            return PlainEntryCodec()
        if scheme == "sdm2004":
            return SDM2004IndexCodec(self._mode(self._legacy_key()))
        if scheme == "dbsec2005":
            if self.config.mac_shared_key:
                # The [12] pathology: MAC keyed with the encryption key.
                mac = maybe_instrument_mac(OMAC(self._legacy_cipher(self._legacy_key())))
            else:
                mac = maybe_instrument_mac(
                    OMAC(self._legacy_cipher(self.keys.index_mac_key()))
                )
            mac = maybe_audit_mac(mac)
            return DBSec2005IndexCodec(
                self._mode(self._legacy_key()),
                mac,
                self._rng.fork(f"index-{index_table_id}"),
                randomness_size=self.config.randomness_size,
                faithful_leaf_bug=self.config.faithful_leaf_bug,
            )
        aead = _make_aead(
            self.config.aead, self.keys.index_key(), backend=self.config.backend
        )
        return AeadIndexCodec(
            aead,
            CountingNonceSource(_nonce_size_for(aead)),
            indexed_table=table_id,
            indexed_column=column_pos,
        )

    # -- the adversary's view ---------------------------------------------------

    def storage_view(self) -> "StorageView":
        """What a rogue storage administrator sees: everything, keyless."""
        return StorageView(self)


class StorageView:
    """Read/tamper access to stored bytes without any keys.

    Models the adversary of Sect. 1: "anyone with physical access to the
    machine or storage system holding the actual data can copy or modify
    it".  Only *stored* representations are reachable from here.
    """

    def __init__(self, db: Database) -> None:
        self._db = db

    # cells ---------------------------------------------------------------

    def cell(self, table_name: str, row_id: int, column: int) -> bytes:
        return self._db.table(table_name).get_cell(row_id, column)

    def set_cell(self, table_name: str, row_id: int, column: int, payload: bytes) -> None:
        self._db.table(table_name).set_cell(row_id, column, payload)

    def cells(self, table_name: str, column: int) -> list[tuple[int, bytes]]:
        table = self._db.table(table_name)
        return [(row_id, cells[column]) for row_id, cells in table.scan()]

    def table_id(self, table_name: str) -> int:
        return self._db.table(table_name).table_id

    # indexes --------------------------------------------------------------

    def index_structure(self, index_name: str):
        return self._db.index(index_name).structure

    def index_payloads(self, index_name: str) -> list[tuple[int, bytes]]:
        """(r_I, stored payload) for every index entry but tombstones."""
        structure = self._db.index(index_name).structure
        return [
            (refs.row_id, entry.payload)
            for refs, entry in structure.entries()
            if not entry.deleted
        ]
