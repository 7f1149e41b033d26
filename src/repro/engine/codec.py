"""Entry-codec protocol shared by the index structures.

The index encryption schemes of [3], [12], and the Sect. 4 fix differ
only in *how a single index entry is stored and verified*; the tree
structures themselves stay plaintext ("preserves the structure of the
index").  The structures in :mod:`repro.engine.indextable` and
:mod:`repro.engine.btree` therefore delegate all payload handling to an
:class:`IndexEntryCodec`, and the concrete schemes live in
:mod:`repro.core.indexcrypto`.  Each structure remembers a bounded number
of the plaintexts it verified (:class:`VerifiedPlaintexts`, which the
database also keeps for its cells), so an unchanged entry is decoded once
rather than on every walk past it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterator

from repro.observability.metrics import REGISTRY as _METRICS

#: Verified plaintexts each index structure and each database's cells
#: remember (least recently used first out).
VERIFIED_ENTRIES_BOUND = 256


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
        :class:`VerifiedPlaintexts`.
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
def uncached() -> Iterator[None]:
    """Bypass every :class:`VerifiedPlaintexts` while the block runs.

    Lookups, fills and the hit/miss counters all stop, process-wide, so
    each query decodes every index entry and cell it reads: the paper's
    cold per-query cost, which ``explain``, ``trace``, the health monitor
    and the audited leakage profile report.
    """
    global _uncached
    previous, _uncached = _uncached, True
    try:
        yield
    finally:
        _uncached = previous


class VerifiedPlaintexts:
    """A bounded LRU map from (stored bytes, binding) to the plaintext a
    codec verified there.

    The binding is everything the codec binds besides its key, as a
    tuple: the fields of an index entry's :class:`EntryRefs` (associated
    data of eqs. 25–26) or of a cell's address (eqs. 23–24).  Every
    scheme here decodes deterministically from the key, the stored bytes
    and the binding, so a remembered plaintext is exactly what decoding
    the same bytes at the same place again would return.  A tampered,
    swapped or relinked payload has other bytes or another binding,
    misses, and reaches the codec.  Only verifying paths fill the map; a
    decode that raises is never remembered.  Whoever holds an instance
    replaces it together with its codec, so no plaintext outlives the key
    that verified it.  Nothing here is ever written to storage.

    ``counters`` names the ``.hits``/``.misses`` counter pair.
    Concurrent readers may race on one entry; the loser counts a miss
    and decodes.
    """

    __slots__ = ("_entries", "_hits", "_misses")

    def __init__(self, counters: str) -> None:
        self._entries: OrderedDict[tuple[bytes, Hashable], Any] = OrderedDict()
        self._hits = _METRICS.counter(counters + ".hits")
        self._misses = _METRICS.counter(counters + ".misses")

    def __len__(self) -> int:
        return len(self._entries)

    def decode(
        self,
        stored: bytes,
        binding: Hashable,
        decode: Callable[[bytes, Any], Any],
        verified: bool = True,
    ) -> Any:
        """``decode(stored, binding)``, answered from the map when it holds
        the pair.  A miss remembers the result only if ``verified``: the
        decode checked what the scheme authenticates."""
        if _uncached:
            return decode(stored, binding)
        entries = self._entries
        entry = (stored, binding)
        plain = entries.get(entry)
        if plain is not None:
            try:
                entries.move_to_end(entry)
            except KeyError:  # evicted by another thread meanwhile
                plain = None
        if plain is None:
            self._misses.inc()
            plain = decode(stored, binding)
            if verified:
                self.remember(stored, binding, plain)
        else:
            self._hits.inc()
        return plain

    def remember(self, stored: bytes, binding: Hashable, plain: Any) -> None:
        """Hold ``plain`` as what decoding ``stored`` at ``binding`` returns."""
        if _uncached:
            return
        entries = self._entries
        entries[(stored, binding)] = plain
        try:
            while len(entries) > VERIFIED_ENTRIES_BOUND:
                entries.popitem(last=False)
        except KeyError:  # another thread emptied it first
            pass
