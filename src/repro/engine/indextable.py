"""The table representation of a search tree used by [3] (paper §2.3).

"The description of the index encryption scheme starts from a table
representation of a B⁺-tree.  The table rows contain structural elements
and index keys.  The structural elements are left and right child nodes
for inner nodes, and the right sibling for leaf nodes."

One row per node, each inner node holding exactly one key and two
children — i.e. a leaf-linked binary search tree stored as a table.
Structure (child/sibling references) is plaintext; only the key payload
passes through the :class:`~repro.engine.codec.IndexEntryCodec`.

The adversary model of the paper acts on this table: an attacker with
storage access can read every row's payload and overwrite payloads at
will (see :meth:`IndexTable.raw_payload` / :meth:`IndexTable.tamper`),
but does not hold the key.

Every walk follows the stored links through :meth:`IndexTable.descend`
(root to leaf) and :meth:`IndexTable.leaves` (the sibling chain); only
:meth:`IndexTable.height` walks the whole tree, for the longest path.
A cycle or an inner row in the chain raises ``IndexCorruptionError``, a
link to a missing row ``NoSuchRowError``: a rewritten link cannot hang
a walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from repro.engine.codec import EntryRefs, IndexEntryCodec, VerifiedPlaintexts
from repro.errors import IndexCorruptionError, NoSuchRowError
from repro.observability.audit import AUDIT as _AUDIT
from repro.observability.metrics import REGISTRY as _METRICS
from repro.observability.trace import TRACER as _TRACER

#: Sentinel "no reference" value stored in structural columns.
NO_REF = -1

_INDEXTABLE_INSERTS = _METRICS.counter("index.table.inserts")
_INDEXTABLE_SEARCHES = _METRICS.counter("index.table.searches")


@dataclass
class IndexRow:
    """One row of the index table: structure in clear, payload encoded."""

    row_id: int
    is_leaf: bool
    payload: bytes
    left: int = NO_REF
    right: int = NO_REF
    sibling: int = NO_REF
    deleted: bool = False

    def internal_refs(self) -> tuple[int, ...]:
        if self.is_leaf:
            return (self.sibling,)
        return (self.left, self.right)

    def refs(self, index_table: int) -> EntryRefs:
        return EntryRefs(
            index_table=index_table,
            row_id=self.row_id,
            is_leaf=self.is_leaf,
            internal=self.internal_refs(),
        )


class IndexTable:
    """Leaf-linked binary search tree stored one-node-per-row.

    Inner rows store a *separator* key: every value in the left subtree
    compares ``<=`` the separator, everything in the right subtree
    compares ``>``.  Leaf rows store the actual (V, r) pairs and chain
    via ``sibling`` for range scans.  Keys are compared as big-endian
    bytes, which the schema encoding made order-compatible.
    """

    def __init__(self, index_table_id: int, codec: IndexEntryCodec) -> None:
        self.index_table_id = index_table_id
        self.codec = codec
        self._rows: dict[int, IndexRow] = {}
        self._root = NO_REF
        self._next_row = 0
        #: Optional callable(row_id) invoked for every row a query
        #: touches — the storage-level I/O trace an adversary observes
        #: ("observation of access patterns", paper §3.2).
        self.observer = None

    @property
    def codec(self) -> IndexEntryCodec:
        return self._codec

    @codec.setter
    def codec(self, codec: IndexEntryCodec) -> None:
        # Nothing verified under the old codec's key carries over.
        self._codec = codec
        self._verified = VerifiedPlaintexts("index.entry_cache")

    # -- construction ---------------------------------------------------------

    def _new_row(self, is_leaf: bool) -> IndexRow:
        row = IndexRow(row_id=self._next_row, is_leaf=is_leaf, payload=b"")
        self._next_row += 1
        self._rows[row.row_id] = row
        return row

    def _encode_into(self, row: IndexRow, key: bytes, table_row: int | None) -> None:
        refs = row.refs(self.index_table_id)
        row.payload = self._codec.encode(key, table_row, refs)
        # The codec just made these bytes from this plaintext.
        self._verified.remember(
            row.payload, refs, self._codec.logical(key, table_row, refs)
        )

    def bulk_build(self, pairs: list[tuple[bytes, int]]) -> None:
        """Build a balanced tree from (key, table_row) pairs.

        Encodes every payload *after* the structure is final, because the
        codecs bind structural references (children, siblings) into the
        stored form.
        """
        if self._rows:
            raise IndexCorruptionError("bulk_build requires an empty index")
        ordered = sorted(pairs, key=lambda pair: pair[0])
        if not ordered:
            return
        leaves = [self._new_row(is_leaf=True) for _ in ordered]
        for position, leaf in enumerate(leaves):
            leaf.sibling = (
                leaves[position + 1].row_id if position + 1 < len(leaves) else NO_REF
            )

        # The logical (not yet encoded) content of every row, filled in as
        # the structure is assembled and encoded in one pass at the end.
        logical: dict[int, tuple[bytes, int | None]] = {}
        for leaf, (key, table_row) in zip(leaves, ordered):
            logical[leaf.row_id] = (key, table_row)

        def build(lo: int, hi: int) -> tuple[int, bytes]:
            """Return (row_id, max_key) of the subtree over leaves[lo:hi]."""
            if hi - lo == 1:
                return leaves[lo].row_id, ordered[lo][0]
            mid = (lo + hi) // 2
            left_id, left_max = build(lo, mid)
            right_id, right_max = build(mid, hi)
            inner = self._new_row(is_leaf=False)
            inner.left, inner.right = left_id, right_id
            # Separator = greatest key of the left subtree, and the row it
            # came from: "data V held in row r of the indexed table" (§2.3).
            logical[inner.row_id] = (left_max, ordered[mid - 1][1])
            return inner.row_id, right_max

        self._root, _ = build(0, len(ordered))
        for row_id, (key, table_row) in logical.items():
            row = self._rows[row_id]
            self._encode_into(row, key, table_row)

    def insert(self, key: bytes, table_row: int) -> int:
        """Insert one (key, table_row) pair; returns the new leaf row id.

        Descends to the insertion point and replaces the found leaf with
        an inner separator over (old leaf, new leaf), keeping the leaf
        chain intact.  Correct but not self-balancing; callers that load
        in bulk should use :meth:`bulk_build` or :meth:`rebuild`.
        """
        _INDEXTABLE_INSERTS.inc()
        new_leaf = self._new_row(is_leaf=True)
        if self._root == NO_REF:
            self._root = new_leaf.row_id
            self._encode_into(new_leaf, key, table_row)
            return new_leaf.row_id

        parent_content: tuple[bytes, int | None] | None = None
        went_left = False

        def route(row: IndexRow) -> bool:
            nonlocal parent_content, went_left
            # Captured *before* any structural mutation: codecs that bind
            # Ref_I could not decode the old payload afterwards.
            parent_content = self._decode(row)
            went_left = key <= parent_content[0]
            return went_left

        current, path = self.descend(route)
        parent = path[-1] if path else None

        leaf_key, leaf_row = self._decode(current)
        inner = self._new_row(is_leaf=False)
        # The displaced leaf keeps its position in the sibling chain (its
        # predecessor's link cannot be found cheaply); the new physical row
        # is chained directly after it, and the *contents* are assigned so
        # that key order along the chain is preserved.
        new_leaf.sibling = current.sibling
        current.sibling = new_leaf.row_id
        if key <= leaf_key:
            current_content = (key, table_row)
            new_content = (leaf_key, leaf_row)
            # A tombstone belongs to the entry, so it moves with it.
            new_leaf.deleted, current.deleted = current.deleted, False
        else:
            current_content = (leaf_key, leaf_row)
            new_content = (key, table_row)
        separator = current_content
        inner.left, inner.right = current.row_id, new_leaf.row_id

        if parent is None:
            self._root = inner.row_id
        elif went_left:
            parent.left = inner.row_id
        else:
            parent.right = inner.row_id

        # Re-encode everything whose structural refs or contents changed.
        self._encode_into(current, *current_content)
        self._encode_into(new_leaf, *new_content)
        self._encode_into(inner, *separator)
        # The parent's payload binds its child refs under [12]/AEAD codecs,
        # and one of them now points at the new inner node: re-encode.
        if parent is not None and parent_content is not None:
            self._encode_into(parent, *parent_content)
        return new_leaf.row_id

    def delete(self, key: bytes, table_row: int) -> bool:
        """Tombstone the leaf holding (key, table_row); True if found."""
        if self._root == NO_REF:
            return False
        current, _ = self.descend(self.router(key, self._decode))
        for leaf in self.leaves(current.row_id):
            if leaf.deleted:
                continue
            leaf_key, leaf_row = self._decode(leaf)
            if leaf_key == key and leaf_row == table_row:
                leaf.deleted = True
                return True
            if leaf_key > key:
                return False
        return False

    def rebuild(self) -> None:
        """Compact tombstones and rebalance by rebuilding from the leaves."""
        pairs = list(self.items())
        self._rows.clear()
        self._root = NO_REF
        # Row ids keep growing: index rows, like table rows, are never
        # reused, so old addresses cannot silently alias new entries.
        self.bulk_build(pairs)

    # -- queries --------------------------------------------------------------

    def search(self, key: bytes) -> list[int]:
        """All table rows whose indexed value equals ``key``."""
        return [row for found_key, row in self.range_search(key, key)]

    def range_search(
        self, low: bytes, high: bytes | None
    ) -> list[tuple[bytes, int]]:
        """All (key, table_row) with low <= key <= high, in key order;
        ``high=None`` leaves the range open above.

        This is the query of [12]'s pseudo-code: tree-walk to the starting
        leaf, then follow right-sibling references to collect the answer.
        Verification behaviour at each step is the codec's concern
        (``decode_for_query``), which is where the footnote-1 bugs live.
        """
        _INDEXTABLE_SEARCHES.inc()
        if _TRACER.enabled:
            with _TRACER.span("index.descent", structure="indextable") as span:
                results = self._range_search(low, high)
                span.add_cost("entries", len(results))
                return results
        return self._range_search(low, high)

    def _range_search(
        self, low: bytes, high: bytes | None
    ) -> list[tuple[bytes, int]]:
        if self._root == NO_REF:
            return []
        current, _ = self.descend(
            self.router(low, lambda row: self._decode_query(row, at_leaf=False)),
            self._observe,
        )

        results: list[tuple[bytes, int]] = []
        for leaf in self.leaves(current.row_id):
            if leaf.deleted:
                continue
            self._observe(leaf)
            leaf_key, leaf_row = self._decode_query(leaf, at_leaf=True)
            if high is not None and leaf_key > high:
                break
            if leaf_key >= low:
                if leaf_row is None:
                    raise IndexCorruptionError(
                        f"leaf {leaf.row_id} carries no table reference"
                    )
                results.append((leaf_key, leaf_row))
        return results

    def items(self) -> list[tuple[bytes, int]]:
        """All live (key, table_row) pairs in key order (verified decode)."""
        out = []
        for leaf in self.leaves(self._leftmost_leaf()):
            if leaf.deleted:
                continue
            key, row = self._decode(leaf)
            if row is None:
                raise IndexCorruptionError(
                    f"leaf {leaf.row_id} carries no table reference"
                )
            out.append((key, row))
        return out

    def verify_all(self) -> None:
        """Decode (and thus verify) every row; used after suspected tampering."""
        for row in self._rows.values():
            if not row.deleted:
                self._decode(row)

    # -- storage-level (adversary) access ------------------------------------

    def raw_rows(self) -> Iterator[IndexRow]:
        """Storage view: every row, structure and payload, no key needed."""
        for row_id in sorted(self._rows):
            yield self._rows[row_id]

    def entries(self) -> Iterator[tuple[EntryRefs, IndexRow]]:
        """Every stored entry with its refs, tombstones included, by row
        id: what a walk over all payloads (re-keying, say) must visit."""
        for row in self.raw_rows():
            yield row.refs(self.index_table_id), row

    def raw_payload(self, row_id: int) -> bytes:
        return self._row(row_id).payload

    def tamper(self, row_id: int, payload: bytes) -> None:
        """Overwrite a stored payload, as a storage-level adversary can."""
        self._row(row_id).payload = bytes(payload)

    @property
    def root_id(self) -> int:
        return self._root

    def row(self, row_id: int) -> IndexRow:
        """Public row access for traversal instrumentation (Remark 1)."""
        return self._row(row_id)

    def __len__(self) -> int:
        return sum(
            1 for row in self._rows.values() if row.is_leaf and not row.deleted
        )

    @property
    def total_rows(self) -> int:
        return len(self._rows)

    def height(self) -> int:
        """Longest root-to-leaf path length (edges)."""
        if self._root == NO_REF:
            return 0
        height = 0
        seen: set[int] = set()
        pending = [(self._root, 0)]
        while pending:
            row_id, depth = pending.pop()
            if row_id in seen:
                raise IndexCorruptionError(f"cycle through inner row {row_id}")
            seen.add(row_id)
            row = self._row(row_id)
            if row.is_leaf:
                height = max(height, depth)
            else:
                pending += [(row.left, depth + 1), (row.right, depth + 1)]
        return height

    # -- internals -------------------------------------------------------------

    def _row(self, row_id: int) -> IndexRow:
        try:
            return self._rows[row_id]
        except KeyError:
            raise NoSuchRowError(f"index has no row {row_id}") from None

    def _decode(self, row: IndexRow) -> tuple[bytes, int | None]:
        return self._verified.decode(
            row.payload, row.refs(self.index_table_id), self._codec.decode
        )

    def _decode_query(self, row: IndexRow, at_leaf: bool) -> tuple[bytes, int | None]:
        codec = self._codec
        return self._verified.decode(
            row.payload, row.refs(self.index_table_id),
            lambda payload, refs: codec.decode_for_query(payload, refs, at_leaf),
            codec.verifies_at_query(at_leaf),
        )

    def _observe(self, row: IndexRow) -> None:
        if _TRACER.enabled:
            _TRACER.add_cost("nodes_read")
        if _AUDIT.enabled:
            _AUDIT.emit("index.node_read", index=self.index_table_id, node=row.row_id)
        if self.observer is not None:
            self.observer(row.row_id)

    def _leftmost_leaf(self) -> int:
        if self._root == NO_REF:
            return NO_REF
        return self.descend(lambda row: True)[0].row_id

    # -- walks -----------------------------------------------------------------

    def descend(
        self,
        route: Callable[[IndexRow], bool],
        visit: Callable[[IndexRow], None] | None = None,
    ) -> tuple[IndexRow, list[IndexRow]]:
        """Walk a non-empty index from the root to a leaf, the one descent.

        At each inner row ``visit(row)`` runs (when given), then
        ``route(row)`` answers whether to follow ``left``.  Returns the
        leaf and the inner rows from the root down.
        """
        row_of = self._row
        current = row_of(self._root)
        # The inner rows passed, in order: both the cycle check and the path.
        seen: dict[int, IndexRow] = {}
        while not current.is_leaf:
            if current.row_id in seen:
                raise IndexCorruptionError(f"cycle through inner row {current.row_id}")
            seen[current.row_id] = current
            if visit is not None:
                visit(current)
            current = row_of(current.left if route(current) else current.right)
        return current, list(seen.values())

    def leaves(self, start: int) -> Iterator[IndexRow]:
        """The sibling chain from row ``start`` on, tombstones included:
        the one chain walk."""
        row_id = start
        seen: set[int] = set()
        while row_id != NO_REF:
            if row_id in seen:
                raise IndexCorruptionError(f"cycle in leaf chain at row {row_id}")
            seen.add(row_id)
            row = self._row(row_id)
            if not row.is_leaf:
                raise IndexCorruptionError(f"leaf chain reached non-leaf row {row_id}")
            yield row
            row_id = row.sibling

    @staticmethod
    def router(
        key: bytes, decode: Callable[[IndexRow], tuple[bytes, int | None]]
    ) -> Callable[[IndexRow], bool]:
        """The :meth:`descend` route toward ``key``: left when ``key``
        compares ``<=`` the separator that ``decode(row)`` reads."""
        return lambda row: key <= decode(row)[0]

