"""Authenticated Encryption with Associated Data — the paper's fix.

Sect. 4 formalises an AEAD scheme as a triple (Key-Gen, AEAD-Enc,
AEAD-Dec) with

    AEAD-Enc : K × N × M × H → C × T                         (eq. 21)
    AEAD-Dec : K × N × C × T × H → M ∪ {invalid}             (eq. 22)

"Note that neither the nonce nor the header data is included in the
ciphertext, they must be handled separately.  No plaintext will be
available if invalid is returned."  We model ``invalid`` as raising
:class:`~repro.errors.AuthenticationError`, so callers cannot touch a
plaintext that failed verification, and cannot distinguish *why* it
failed (wrong key, wrong address, tampered nonce/ciphertext/tag).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

from repro.errors import AuthenticationError, NonceError


class AEAD(ABC):
    """Nonce-based authenticated encryption with associated data."""

    name: str
    #: Required nonce length in bytes (None = any non-empty length).
    nonce_size: int | None
    #: Tag length in bytes.
    tag_size: int

    @abstractmethod
    def encrypt(self, nonce: bytes, plaintext: bytes, header: bytes = b"") -> tuple[bytes, bytes]:
        """AEAD-Enc: return the pair (ciphertext, tag) — eq. (21)."""

    @abstractmethod
    def decrypt(self, nonce: bytes, ciphertext: bytes, tag: bytes, header: bytes = b"") -> bytes:
        """AEAD-Dec: return the plaintext or raise — eq. (22).

        Raises :class:`AuthenticationError` (the paper's ``invalid``) when
        the nonce, ciphertext, tag, or header fail to verify.
        """

    # The two batch names are plain loops over the per-message methods,
    # overridden nowhere and called from nowhere in the package.  They
    # stay only because ``perfbench/tracing.py`` wraps them by name on
    # ``EAX``; that tracer also wraps ``encrypt``/``decrypt``, so a call
    # through a loop would count each message twice.

    def encrypt_batch(
        self, items: Sequence[tuple[bytes, bytes, bytes]]
    ) -> list[tuple[bytes, bytes]]:
        """AEAD-Enc over ``(nonce, plaintext, header)`` triples, in order."""
        return [
            self.encrypt(nonce, plaintext, header)
            for nonce, plaintext, header in items
        ]

    def decrypt_batch(
        self, items: Sequence[tuple[bytes, bytes, bytes, bytes]]
    ) -> list[bytes]:
        """AEAD-Dec over ``(nonce, ciphertext, tag, header)`` quadruples;
        the first failure raises, as :meth:`decrypt` does."""
        return [
            self.decrypt(nonce, ciphertext, tag, header)
            for nonce, ciphertext, tag, header in items
        ]

    def _check_nonce(self, nonce: bytes) -> None:
        if self.nonce_size is not None and len(nonce) != self.nonce_size:
            raise NonceError(
                f"{self.name} requires a {self.nonce_size}-byte nonce, "
                f"got {len(nonce)} bytes"
            )
        if self.nonce_size is None and not nonce:
            raise NonceError(f"{self.name} requires a non-empty nonce")

    @staticmethod
    def _invalid() -> AuthenticationError:
        # One shared message for every failure cause: the paper requires
        # that wrong key / wrong address / tampering be indistinguishable.
        return AuthenticationError("invalid")


class StoredEntry:
    """The stored representation (N, C, T) of eq. (23).

    The associated data (cell address / references) is deliberately *not*
    part of this record: "The associated data, containing the cell
    address resp. references, is not stored explicitly" (Sect. 4,
    Storage Overhead).  It is re-derived from the entry's position at
    decryption time.
    """

    __slots__ = ("nonce", "ciphertext", "tag")

    def __init__(self, nonce: bytes, ciphertext: bytes, tag: bytes) -> None:
        self.nonce = bytes(nonce)
        self.ciphertext = bytes(ciphertext)
        self.tag = bytes(tag)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StoredEntry):
            return NotImplemented
        return (
            self.nonce == other.nonce
            and self.ciphertext == other.ciphertext
            and self.tag == other.tag
        )

    def __hash__(self) -> int:
        return hash((self.nonce, self.ciphertext, self.tag))

    def __repr__(self) -> str:
        return (
            f"StoredEntry(nonce={self.nonce.hex()}, "
            f"ciphertext={self.ciphertext.hex()}, tag={self.tag.hex()})"
        )

    @property
    def stored_size(self) -> int:
        """Total octets this entry occupies in untrusted storage."""
        return len(self.nonce) + len(self.ciphertext) + len(self.tag)

    def overhead(self, plaintext_size: int) -> int:
        """Storage overhead relative to the plaintext (Sect. 4 metric)."""
        return self.stored_size - plaintext_size

    def to_bytes(self) -> bytes:
        """Length-prefixed wire encoding for the storage layer."""
        parts = []
        for field in (self.nonce, self.ciphertext, self.tag):
            parts.append(len(field).to_bytes(4, "big"))
            parts.append(field)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "StoredEntry":
        fields = []
        offset = 0
        for _ in range(3):
            if offset + 4 > len(data):
                raise ValueError("truncated StoredEntry encoding")
            length = int.from_bytes(data[offset:offset + 4], "big")
            offset += 4
            if offset + length > len(data):
                raise ValueError("truncated StoredEntry encoding")
            fields.append(data[offset:offset + length])
            offset += length
        if offset != len(data):
            raise ValueError("trailing bytes after StoredEntry encoding")
        return cls(*fields)


def comparable_ciphertext(stored: bytes) -> bytes:
    """The bytes a keyless reader compares across stored values.

    Storage formats are public knowledge.  When a stored value parses as
    the (N, C, T) record of the fixed scheme, the adversary of Sect. 3
    compares the ciphertext component C — comparing the whole record
    would only ever "match" on framing bytes and sequential-counter
    nonce prefixes, which carry no plaintext information.  Raw mode
    ciphertexts (the [3]/[12] formats) are compared as-is.
    """
    try:
        return StoredEntry.from_bytes(stored).ciphertext
    except ValueError:
        return stored
