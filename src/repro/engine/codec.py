"""Entry-codec protocol shared by the index structures.

The index encryption schemes of [3], [12], and the Sect. 4 fix differ
only in *how a single index entry is stored and verified*; the tree
structures themselves stay plaintext ("preserves the structure of the
index").  The structures in :mod:`repro.engine.indextable` and
:mod:`repro.engine.btree` therefore delegate all payload handling to an
:class:`IndexEntryCodec`, and the concrete schemes live in
:mod:`repro.core.indexcrypto`.  Each structure remembers a bounded number
of the plaintexts it verified (:class:`VerifiedEntries`), so an unchanged
entry is decoded once rather than on every walk past it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.observability.metrics import REGISTRY as _METRICS

#: Verified entries each index structure remembers (least recently used
#: first out).
VERIFIED_ENTRIES_BOUND = 256

_ENTRY_CACHE_HITS = _METRICS.counter("index.entry_cache.hits")
_ENTRY_CACHE_MISSES = _METRICS.counter("index.entry_cache.misses")


@dataclass(frozen=True)
class EntryRefs:
    """Everything an entry's surroundings contribute to its encryption.

    * ``index_table`` — the id t_I of the index table itself;
    * ``row_id`` — r_I, the entry's row in the index table (a
      self-reference, Ref_S in the terminology of [12]);
    * ``is_leaf`` — whether the entry sits at the leaf level;
    * ``internal`` — Ref_I, the index-internal references: child row ids
      for inner entries, the right-sibling id for leaf entries
      (paper Sect. 2.4: "left child / right child / next sibling").
    """

    index_table: int
    row_id: int
    is_leaf: bool
    internal: tuple[int, ...]

    def encode_internal(self) -> bytes:
        """Fixed-width byte encoding of Ref_I for MAC/AD binding."""
        parts = [len(self.internal).to_bytes(2, "big")]
        parts += [ref.to_bytes(8, "big", signed=True) for ref in self.internal]
        return b"".join(parts)


class IndexEntryCodec(ABC):
    """Transforms one index entry between logical and stored form.

    The logical form of an entry is the pair ``(key, table_row)`` where
    ``key`` is the encoded attribute value V and ``table_row`` is Ref_T
    (the indexed table's row the value came from; ``None`` for inner
    entries of schemes that do not store it).
    """

    name: str

    @abstractmethod
    def encode(self, key: bytes, table_row: int | None, refs: EntryRefs) -> bytes:
        """Produce the stored payload for an entry."""

    @abstractmethod
    def decode(self, payload: bytes, refs: EntryRefs) -> tuple[bytes, int | None]:
        """Recover (key, table_row) from a stored payload, verifying
        whatever integrity the scheme provides.  Raises
        :class:`~repro.errors.AuthenticationError` on tampering (for
        schemes that can detect it)."""

    def decode_for_query(
        self, payload: bytes, refs: EntryRefs, at_leaf: bool
    ) -> tuple[bytes, int | None]:
        """Decode during query evaluation.

        Default: identical to :meth:`decode`.  The faithful [12]
        reproduction overrides this to skip leaf-level verification,
        reproducing the two pseudo-code bugs of the paper's footnote 1.
        """
        return self.decode(payload, refs)

    def verifies_at_query(self, at_leaf: bool) -> bool:
        """Whether :meth:`decode_for_query` verifies at this level.

        A codec whose query decode skips verification somewhere must say
        so here: only verified plaintexts may enter a structure's
        :class:`VerifiedEntries`.
        """
        return True

    def logical(
        self, key: bytes, table_row: int | None, refs: EntryRefs
    ) -> tuple[bytes, int | None]:
        """What :meth:`decode` returns for ``encode(key, table_row, refs)``."""
        return key, table_row


class PlainEntryCodec(IndexEntryCodec):
    """No encryption: payload is a transparent (key, table_row) encoding.

    The baseline every encrypted scheme is benchmarked against.
    """

    name = "plain"

    def encode(self, key: bytes, table_row: int | None, refs: EntryRefs) -> bytes:
        row = -1 if table_row is None else table_row
        return row.to_bytes(8, "big", signed=True) + key

    def decode(self, payload: bytes, refs: EntryRefs) -> tuple[bytes, int | None]:
        row = int.from_bytes(payload[:8], "big", signed=True)
        return payload[8:], None if row < 0 else row


_uncached = False


@contextmanager
def uncached_index_entries() -> Iterator[None]:
    """Bypass every :class:`VerifiedEntries` while the block runs.

    Lookups, fills and the hit/miss counters all stop, process-wide, so
    each query decodes every entry it reads: the paper's cold per-query
    cost, which ``explain`` and the health monitor report.
    """
    global _uncached
    previous, _uncached = _uncached, True
    try:
        yield
    finally:
        _uncached = previous


class VerifiedEntries:
    """An index codec plus a bounded LRU map from (stored payload, refs)
    to the plaintext it verified.

    Every scheme here decodes deterministically: the plaintext is a
    function of the key, the payload and its :class:`EntryRefs`, which
    the AEAD fix binds as associated data (eqs. 25–26).  So a remembered
    plaintext is exactly what decoding the same bytes at the same place
    again would return.  A tampered, swapped or relinked entry has other
    bytes or refs, misses, and reaches the codec.  Only paths that verify
    fill the map: an encode (the codec just made those bytes from that
    plaintext), a successful :meth:`decode`, and a query decode at a
    level where the codec verifies.  An index structure replaces its
    instance together with its codec, so no plaintext outlives the key
    that verified it.  Nothing here is ever written to storage.

    Concurrent readers may race on one entry; the loser counts a miss
    and decodes.
    """

    __slots__ = ("codec", "_entries")

    def __init__(self, codec: IndexEntryCodec) -> None:
        self.codec = codec
        self._entries: OrderedDict[
            tuple[bytes, EntryRefs], tuple[bytes, int | None]
        ] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def _lookup(
        self, payload: bytes, refs: EntryRefs
    ) -> tuple[bytes, int | None] | None:
        entry = (payload, refs)
        try:
            plain = self._entries[entry]
            self._entries.move_to_end(entry)
        except KeyError:  # absent, or evicted by another thread meanwhile
            _ENTRY_CACHE_MISSES.inc()
            return None
        _ENTRY_CACHE_HITS.inc()
        return plain

    def _remember(
        self, payload: bytes, refs: EntryRefs, plain: tuple[bytes, int | None]
    ) -> None:
        entries = self._entries
        entries[(payload, refs)] = plain
        try:
            while len(entries) > VERIFIED_ENTRIES_BOUND:
                entries.popitem(last=False)
        except KeyError:  # another thread emptied it first
            pass

    def encode(self, key: bytes, table_row: int | None, refs: EntryRefs) -> bytes:
        payload = self.codec.encode(key, table_row, refs)
        if not _uncached:
            self._remember(payload, refs, self.codec.logical(key, table_row, refs))
        return payload

    def decode(self, payload: bytes, refs: EntryRefs) -> tuple[bytes, int | None]:
        if _uncached:
            return self.codec.decode(payload, refs)
        plain = self._lookup(payload, refs)
        if plain is None:
            plain = self.codec.decode(payload, refs)
            self._remember(payload, refs, plain)
        return plain

    def decode_for_query(
        self, payload: bytes, refs: EntryRefs, at_leaf: bool
    ) -> tuple[bytes, int | None]:
        if _uncached:
            return self.codec.decode_for_query(payload, refs, at_leaf)
        plain = self._lookup(payload, refs)
        if plain is None:
            plain = self.codec.decode_for_query(payload, refs, at_leaf)
            if self.codec.verifies_at_query(at_leaf):
                self._remember(payload, refs, plain)
        return plain
