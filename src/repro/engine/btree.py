"""A d-ary B⁺-tree over encoded entries.

Remark 1 of the paper observes that avoiding the key handover costs
"logarithmic many additional communication rounds", and that "such a
scheme might be worthwhile if the index uses d-nary B⁺-trees with
d ≥ 2".  This module provides that d-ary structure (the binary
table-representation of [3] lives in :mod:`repro.engine.indextable`).

Entry payloads pass through the same
:class:`~repro.engine.codec.IndexEntryCodec` protocol, so the fixed AEAD
index scheme (and, for comparison, every other scheme) runs on top of
either structure.  Structure — node fan-out, child links, leaf chaining —
stays in plaintext, exactly as in the paper's schemes.

Every walk follows the stored links through :meth:`BPlusTree.descend`
(root to leaf) and :meth:`BPlusTree.leaves` (the leaf chain), the only
code that checks them.  A cycle, a missing child position or an inner
node in the chain raises ``IndexCorruptionError``, a link to a missing
node ``NoSuchRowError``: a rewritten link cannot hang a walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Iterator

from repro.engine.codec import EntryRefs, IndexEntryCodec, VerifiedPlaintexts
from repro.errors import IndexCorruptionError, NoSuchRowError
from repro.observability.audit import AUDIT as _AUDIT
from repro.observability.metrics import REGISTRY as _METRICS
from repro.observability.trace import TRACER as _TRACER

NO_REF = -1

_BTREE_INSERTS = _METRICS.counter("index.btree.inserts")
_BTREE_SEARCHES = _METRICS.counter("index.btree.searches")
_BTREE_NODES_READ = _METRICS.counter("index.btree.nodes_read")


@dataclass
class BEntry:
    """One stored entry: a stable index-row id r_I plus the payload."""

    row_id: int
    payload: bytes
    #: A B⁺-tree delete removes the entry; nothing is ever tombstoned.
    deleted: ClassVar[bool] = False


@dataclass
class BNode:
    node_id: int
    is_leaf: bool
    entries: list[BEntry] = field(default_factory=list)
    children: list[int] = field(default_factory=list)
    next_leaf: int = NO_REF


@dataclass
class _Logical:
    """Decoded view of an entry during a structural mutation."""

    row_id: int
    key: bytes
    table_row: int | None


class BPlusTree:
    """B⁺-tree of configurable order with codec-encoded entries.

    Routing convention: an inner node with separator keys k_0..k_{m-1}
    and children c_0..c_m sends ``key <= k_i`` into c_i (first match) and
    everything greater into c_m.  Separators are the maximum key of the
    subtree to their left.
    """

    def __init__(
        self, index_table_id: int, codec: IndexEntryCodec, order: int = 8
    ) -> None:
        if order < 3:
            raise ValueError("order must be at least 3")
        self.index_table_id = index_table_id
        self.codec = codec
        self.order = order
        self._nodes: dict[int, BNode] = {}
        self._next_node = 0
        self._next_entry_row = 0
        #: Optional callable(node_id) invoked for every node a query
        #: touches — the I/O trace a storage adversary observes.
        self.observer = None
        root = self._new_node(is_leaf=True)
        self._root = root.node_id

    # -- plumbing ----------------------------------------------------------

    @property
    def codec(self) -> IndexEntryCodec:
        return self._codec

    @codec.setter
    def codec(self, codec: IndexEntryCodec) -> None:
        # Nothing verified under the old codec's key carries over.
        self._codec = codec
        self._verified = VerifiedPlaintexts("index.entry_cache")

    def _new_node(self, is_leaf: bool) -> BNode:
        node = BNode(node_id=self._next_node, is_leaf=is_leaf)
        self._next_node += 1
        self._nodes[node.node_id] = node
        return node

    def _new_row_id(self) -> int:
        row_id = self._next_entry_row
        self._next_entry_row += 1
        return row_id

    def node(self, node_id: int) -> BNode:
        """Public node access (used for Remark-1 client-side traversal)."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise NoSuchRowError(f"tree has no node {node_id}") from None

    @property
    def root_id(self) -> int:
        return self._root

    def entry_refs(self, node: BNode, slot: int) -> EntryRefs:
        """The EntryRefs of the entry at ``slot`` of ``node``."""
        entry = node.entries[slot]
        if node.is_leaf:
            internal: tuple[int, ...] = (node.next_leaf,)
        else:
            if slot + 1 >= len(node.children):
                raise IndexCorruptionError(
                    f"inner node {node.node_id} holds {len(node.entries)} "
                    f"entries but only {len(node.children)} children"
                )
            internal = (node.children[slot], node.children[slot + 1])
        return EntryRefs(
            index_table=self.index_table_id,
            row_id=entry.row_id,
            is_leaf=node.is_leaf,
            internal=internal,
        )

    def _decode_slot(self, node: BNode, slot: int) -> tuple[bytes, int | None]:
        return self._verified.decode(
            node.entries[slot].payload, self.entry_refs(node, slot),
            self._codec.decode,
        )

    def _decode_slot_query(
        self, node: BNode, slot: int
    ) -> tuple[bytes, int | None]:
        codec, at_leaf = self._codec, node.is_leaf
        return self._verified.decode(
            node.entries[slot].payload, self.entry_refs(node, slot),
            lambda payload, refs: codec.decode_for_query(payload, refs, at_leaf),
            codec.verifies_at_query(at_leaf),
        )

    def _decode_node(self, node: BNode) -> list[_Logical]:
        return [
            _Logical(entry.row_id, *self._decode_slot(node, slot))
            for slot, entry in enumerate(node.entries)
        ]

    def _encode_node(self, node: BNode, logicals: list[_Logical]) -> None:
        node.entries = [BEntry(item.row_id, b"") for item in logicals]
        codec = self._codec
        for slot, item in enumerate(logicals):
            refs = self.entry_refs(node, slot)
            payload = codec.encode(item.key, item.table_row, refs)
            node.entries[slot].payload = payload
            # The codec just made these bytes from this plaintext.
            self._verified.remember(
                payload, refs, codec.logical(item.key, item.table_row, refs)
            )

    # -- mutation ----------------------------------------------------------

    def insert(self, key: bytes, table_row: int) -> int:
        """Insert a (key, table_row) pair; returns the entry's r_I."""
        _BTREE_INSERTS.inc()
        row_id = self._new_row_id()
        # Each node on the way down is decoded whole: a split re-encodes it.
        decoded: list[list[_Logical]] = []

        def route(node: BNode) -> int:
            logicals = self._decode_node(node)
            decoded.append(logicals)
            for position, item in enumerate(logicals):
                if key <= item.key:
                    return position
            return len(logicals)

        leaf, path = self.descend(route)
        logicals = self._decode_node(leaf)
        # Insert after equal keys so duplicates keep arrival order.
        position = len(logicals)
        for index, item in enumerate(logicals):
            if key < item.key:
                position = index
                break
        logicals.insert(position, _Logical(row_id, key, table_row))
        if len(logicals) <= self.order:
            self._encode_node(leaf, logicals)
            return row_id
        sep, sep_origin, right_id = self._split_leaf(leaf, logicals)
        # Back up the path: each split adds a separator to the parent.
        # Nodes above the last split bind unchanged child ids, so they
        # need no re-encode.
        for (node, position), logicals in zip(reversed(path), reversed(decoded)):
            logicals.insert(position, _Logical(self._new_row_id(), sep, sep_origin))
            node.children.insert(position + 1, right_id)
            if len(logicals) <= self.order:
                self._encode_node(node, logicals)
                return row_id
            sep, sep_origin, right_id = self._split_inner(node, logicals)
        new_root = self._new_node(is_leaf=False)
        new_root.children = [self._root, right_id]
        self._encode_node(new_root, [_Logical(self._new_row_id(), sep, sep_origin)])
        self._root = new_root.node_id
        return row_id

    def _split_leaf(
        self, node: BNode, logicals: list[_Logical]
    ) -> tuple[bytes, int | None, int]:
        middle = len(logicals) // 2
        right = self._new_node(is_leaf=True)
        right.next_leaf = node.next_leaf
        node.next_leaf = right.node_id
        left_part, right_part = logicals[:middle], logicals[middle:]
        self._encode_node(node, left_part)
        self._encode_node(right, right_part)
        separator = left_part[-1]
        return separator.key, separator.table_row, right.node_id

    def _split_inner(
        self, node: BNode, logicals: list[_Logical]
    ) -> tuple[bytes, int | None, int]:
        middle = len(logicals) // 2
        promoted = logicals[middle]
        right = self._new_node(is_leaf=False)
        right.children = node.children[middle + 1:]
        node.children = node.children[: middle + 1]
        right_part = logicals[middle + 1:]
        left_part = logicals[:middle]
        self._encode_node(node, left_part)
        self._encode_node(right, right_part)
        return promoted.key, promoted.table_row, right.node_id

    def bulk_build(self, pairs: list[tuple[bytes, int]]) -> None:
        """Insert many pairs (sorted for balance)."""
        for key, table_row in sorted(pairs, key=lambda pair: pair[0]):
            self.insert(key, table_row)

    def delete(self, key: bytes, table_row: int) -> bool:
        """Remove one matching leaf entry, rebalancing by borrow/merge.

        The entry is located by routing; duplicates that overflowed into
        later leaves are found by a chain walk and removed *without*
        rebalancing (they cannot be attributed to a parent path cheaply;
        the tree stays correct, merely potentially sparse there).
        """
        leaf, path = self.descend(self.router(key, self._decode_slot))
        logicals = self._decode_node(leaf)
        index = next(
            (
                i for i, item in enumerate(logicals)
                if item.key == key and item.table_row == table_row
            ),
            None,
        )
        if index is None:
            return self._delete_by_chain(leaf, key, table_row)
        del logicals[index]
        self._encode_node(leaf, logicals)
        self._rebalance_upwards(path, leaf)
        return True

    def _delete_by_chain(self, start: BNode, key: bytes, table_row: int) -> bool:
        """Fallback removal for duplicates that spilled past the routed
        leaf; does not rebalance."""
        chain = self.leaves(start.node_id)
        next(chain)  # the routed leaf, searched already
        for node in chain:
            logicals = self._decode_node(node)
            for index, item in enumerate(logicals):
                if item.key == key and item.table_row == table_row:
                    del logicals[index]
                    self._encode_node(node, logicals)
                    return True
                if item.key > key:
                    return False
        return False

    # -- rebalancing -----------------------------------------------------------

    @property
    def _min_fill(self) -> int:
        return self.order // 2

    def _rebalance_upwards(self, path: list[tuple[BNode, int]], node: BNode) -> None:
        while path:
            if len(node.entries) >= self._min_fill:
                break
            parent, position = path.pop()
            # Decode the parent before its children list mutates: codecs
            # bind child ids into the stored payloads.
            parent_logicals = self._decode_node(parent)
            left = (
                self.node(parent.children[position - 1])
                if position > 0 else None
            )
            right = (
                self.node(parent.children[position + 1])
                if position + 1 < len(parent.children) else None
            )
            if left is not None and len(left.entries) > self._min_fill:
                self._borrow_from_left(parent, parent_logicals, position, left, node)
                return
            if right is not None and len(right.entries) > self._min_fill:
                self._borrow_from_right(parent, parent_logicals, position, node, right)
                return
            if left is not None:
                self._merge_children(parent, parent_logicals, position - 1)
            else:
                self._merge_children(parent, parent_logicals, position)
            node = parent

        root = self.node(self._root)
        if not root.is_leaf and not root.entries:
            # The root emptied out: the tree loses one level.
            del self._nodes[self._root]
            self._root = root.children[0]

    def _borrow_from_left(
        self,
        parent: BNode,
        parent_logicals: list[_Logical],
        position: int,
        left: BNode,
        node: BNode,
    ) -> None:
        left_logicals = self._decode_node(left)
        node_logicals = self._decode_node(node)
        separator_index = position - 1
        if node.is_leaf:
            moved = left_logicals.pop()
            node_logicals.insert(0, moved)
            # New separator = the new maximum of the left subtree.
            new_sep = left_logicals[-1]
            parent_logicals[separator_index] = _Logical(
                parent_logicals[separator_index].row_id, new_sep.key, new_sep.table_row
            )
        else:
            old_sep = parent_logicals[separator_index]
            moved_child = left.children.pop()
            node.children.insert(0, moved_child)
            # The old separator descends; the left's last entry ascends.
            node_logicals.insert(
                0, _Logical(self._new_row_id(), old_sep.key, old_sep.table_row)
            )
            promoted = left_logicals.pop()
            parent_logicals[separator_index] = _Logical(
                old_sep.row_id, promoted.key, promoted.table_row
            )
        self._encode_node(left, left_logicals)
        self._encode_node(node, node_logicals)
        self._encode_node(parent, parent_logicals)

    def _borrow_from_right(
        self,
        parent: BNode,
        parent_logicals: list[_Logical],
        position: int,
        node: BNode,
        right: BNode,
    ) -> None:
        right_logicals = self._decode_node(right)
        node_logicals = self._decode_node(node)
        separator_index = position
        if node.is_leaf:
            moved = right_logicals.pop(0)
            node_logicals.append(moved)
            parent_logicals[separator_index] = _Logical(
                parent_logicals[separator_index].row_id, moved.key, moved.table_row
            )
        else:
            old_sep = parent_logicals[separator_index]
            moved_child = right.children.pop(0)
            node.children.append(moved_child)
            node_logicals.append(
                _Logical(self._new_row_id(), old_sep.key, old_sep.table_row)
            )
            demoted = right_logicals.pop(0)
            parent_logicals[separator_index] = _Logical(
                old_sep.row_id, demoted.key, demoted.table_row
            )
        self._encode_node(right, right_logicals)
        self._encode_node(node, node_logicals)
        self._encode_node(parent, parent_logicals)

    def _merge_children(
        self, parent: BNode, parent_logicals: list[_Logical], left_index: int
    ) -> None:
        """Merge children[left_index+1] into children[left_index]."""
        left = self.node(parent.children[left_index])
        right = self.node(parent.children[left_index + 1])
        left_logicals = self._decode_node(left)
        right_logicals = self._decode_node(right)
        separator = parent_logicals[left_index]

        if left.is_leaf:
            merged = left_logicals + right_logicals
            left.next_leaf = right.next_leaf
        else:
            bridge = _Logical(separator.row_id, separator.key, separator.table_row)
            merged = left_logicals + [bridge] + right_logicals
            left.children.extend(right.children)

        del parent_logicals[left_index]
        del parent.children[left_index + 1]
        del self._nodes[right.node_id]
        self._encode_node(left, merged)
        self._encode_node(parent, parent_logicals)

    # -- queries -------------------------------------------------------------

    def _observe(self, node: BNode) -> None:
        _BTREE_NODES_READ.inc()
        if _TRACER.enabled:
            _TRACER.add_cost("nodes_read")
        if _AUDIT.enabled:
            _AUDIT.emit("index.node_read", index=self.index_table_id, node=node.node_id)
        if self.observer is not None:
            self.observer(node.node_id)

    def search(self, key: bytes) -> list[int]:
        return [row for _, row in self.range_search(key, key)]

    def range_search(
        self, low: bytes, high: bytes | None
    ) -> list[tuple[bytes, int]]:
        """All (key, table_row) with low <= key <= high, in key order;
        ``high=None`` leaves the range open above."""
        _BTREE_SEARCHES.inc()
        if _TRACER.enabled:
            with _TRACER.span("index.descent", structure="btree") as span:
                results = self._range_search(low, high)
                span.add_cost("entries", len(results))
                return results
        return self._range_search(low, high)

    def _range_search(
        self, low: bytes, high: bytes | None
    ) -> list[tuple[bytes, int]]:
        results: list[tuple[bytes, int]] = []
        leaf, _ = self.descend(
            self.router(low, self._decode_slot_query), self._observe
        )
        for node in self.leaves(leaf.node_id):
            self._observe(node)
            for slot in range(len(node.entries)):
                key, table_row = self._decode_slot_query(node, slot)
                if high is not None and key > high:
                    return results
                if key >= low:
                    if table_row is None:
                        raise IndexCorruptionError(
                            f"leaf entry {node.entries[slot].row_id} "
                            "carries no table reference"
                        )
                    results.append((key, table_row))
        return results

    def items(self) -> list[tuple[bytes, int]]:
        out: list[tuple[bytes, int]] = []
        for node in self.leaves(self._leftmost_leaf()):
            for slot in range(len(node.entries)):
                key, table_row = self._decode_slot(node, slot)
                if table_row is None:
                    raise IndexCorruptionError("leaf entry without table row")
                out.append((key, table_row))
        return out

    def verify_all(self) -> None:
        """Decode (verify) every entry in every node."""
        for node in self._nodes.values():
            for slot in range(len(node.entries)):
                self._decode_slot(node, slot)

    def height(self) -> int:
        """Root-to-leaf path length in edges (uniform by construction)."""
        return len(self.descend(_first_child)[1])

    def __len__(self) -> int:
        return sum(
            len(node.entries) for node in self._nodes.values() if node.is_leaf
        )

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    # -- storage-level (adversary) access -------------------------------------

    def raw_entries(self) -> Iterator[tuple[int, int, BEntry]]:
        """Yield (node_id, slot, entry) for every stored entry."""
        for node_id in sorted(self._nodes):
            node = self._nodes[node_id]
            for slot, entry in enumerate(node.entries):
                yield node_id, slot, entry

    def entries(self) -> Iterator[tuple[EntryRefs, BEntry]]:
        """Every stored entry with its refs, nodes by id, then slot."""
        for node_id, slot, entry in self.raw_entries():
            yield self.entry_refs(self._nodes[node_id], slot), entry

    def tamper(self, node_id: int, slot: int, payload: bytes) -> None:
        """Overwrite one stored payload (storage-level adversary)."""
        self.node(node_id).entries[slot].payload = bytes(payload)

    def _leftmost_leaf(self) -> int:
        return self.descend(_first_child)[0].node_id

    # -- walks -----------------------------------------------------------------

    def descend(
        self,
        route: Callable[[BNode], int],
        visit: Callable[[BNode], None] | None = None,
    ) -> tuple[BNode, list[tuple[BNode, int]]]:
        """Walk from the root to a leaf, the one descent.

        At each inner node ``visit(node)`` runs (when given), then
        ``route(node)`` names the child position to follow.  Returns the
        leaf and the ``(inner node, position)`` path from the root down.
        """
        node = self.node(self._root)
        path: list[tuple[BNode, int]] = []
        seen: set[int] = set()
        while not node.is_leaf:
            if node.node_id in seen:
                raise IndexCorruptionError(
                    f"cycle through inner node {node.node_id}"
                )
            seen.add(node.node_id)
            if visit is not None:
                visit(node)
            position = route(node)
            if position >= len(node.children):
                raise IndexCorruptionError(
                    f"inner node {node.node_id} lacks child {position}"
                )
            path.append((node, position))
            node = self.node(node.children[position])
        return node, path

    def leaves(self, start: int) -> Iterator[BNode]:
        """The leaf chain from node ``start`` on: the one chain walk."""
        node_id = start
        seen: set[int] = set()
        while node_id != NO_REF:
            if node_id in seen:
                raise IndexCorruptionError(f"cycle in leaf chain at node {node_id}")
            seen.add(node_id)
            node = self.node(node_id)
            if not node.is_leaf:
                raise IndexCorruptionError(f"leaf chain reached inner node {node_id}")
            yield node
            node_id = node.next_leaf

    @staticmethod
    def router(
        key: bytes, decode: Callable[[BNode, int], tuple[bytes, int | None]]
    ) -> Callable[[BNode], int]:
        """The :meth:`descend` route toward ``key``: the first child whose
        separator, read by ``decode(node, slot)``, is at or above it."""

        def route(node: BNode) -> int:
            for slot in range(len(node.entries)):
                if key <= decode(node, slot)[0]:
                    return slot
            return len(node.entries)

        return route


def _first_child(node: BNode) -> int:
    return 0
