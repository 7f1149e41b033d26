"""The trusted-session model and Remark 1's client-side traversal.

Sect. 2.1: "the server the DBMS runs on is temporarily trusted: During a
secure session the encryption keys are handed over to the DBMS server,
and securely removed at the end of the session."  :class:`SecureSession`
models that lifecycle — queries through a closed session fail, and
closing the session makes the database's cells and every index forget
the plaintexts they verified.
The key ring is not wiped: the database keeps its keys and still answers
queries made on it directly, outside the session.

Remark 1: the handover "might be avoided at the cost of additional
running time and logarithmic many additional communication rounds
between client and server", with the client decrypting node data and
answering left/right (or which-child) per round.
:class:`ClientSideTraversal` implements that protocol over both index
structures and counts the rounds, feeding benchmark X3.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.encrypted_db import EncryptedDatabase
from repro.engine.btree import BPlusTree
from repro.engine.indextable import NO_REF, IndexTable
from repro.engine.query import Query, QueryResult
from repro.errors import SessionError


class SecureSession:
    """Context manager modelling the Sect. 2.1 key handover.

    The client constructs it with the database (which owns a KeyRing);
    inside the ``with`` block the server may execute queries.  On exit
    the session closes, the cells and indexes drop every plaintext they
    verified, and further queries raise :class:`SessionError`.
    The key ring itself survives (the *client* still has the keys); only
    the server-side handle dies.
    """

    def __init__(self, db: EncryptedDatabase) -> None:
        self._db = db
        self._open = False
        self.queries_executed = 0

    def __enter__(self) -> "SecureSession":
        self.open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def open(self) -> None:
        if self._open:
            raise SessionError("session is already open")
        self._open = True

    def close(self) -> None:
        """End the session: the database's cells and every index forget
        the plaintexts they verified while the keys were on the server."""
        self._open = False
        db = self._db
        # Each codec setter installs an empty verified-plaintext cache.
        db.cell_codec = db.cell_codec
        for name in db.index_names:
            structure = db.index(name).structure
            structure.codec = structure.codec

    @property
    def is_open(self) -> bool:
        return self._open

    def execute(self, query: Query) -> QueryResult:
        """Run a query server-side; only legal while the session is open."""
        if not self._open:
            raise SessionError("no open session: keys are not on the server")
        self.queries_executed += 1
        return query.execute(self._db)


@dataclass
class TraversalTrace:
    """Outcome of one client-side index search (Remark 1)."""

    results: list[tuple[bytes, int]]
    rounds: int
    nodes_fetched: int
    #: Total payload octets the server shipped to the client — the
    #: bandwidth half of Remark 1's "additional running time and
    #: logarithmic many additional communication rounds".
    bytes_transferred: int = 0

    @property
    def row_ids(self) -> list[int]:
        return [row for _, row in self.results]


class ClientSideTraversal:
    """Index search without handing keys to the server.

    Per round the server ships one node's encrypted entries; the client
    decrypts locally and answers which child to fetch next.  Rounds are
    therefore exactly the root-to-leaf path length plus the leaf-chain
    walk — "logarithmic many additional communication rounds".  For a
    d-ary B⁺-tree the height shrinks with log_d, which is Remark 1's
    point about d ≥ 2.
    """

    def __init__(self, structure: IndexTable | BPlusTree) -> None:
        self._structure = structure

    def range_search(self, low: bytes, high: bytes) -> TraversalTrace:
        if isinstance(self._structure, IndexTable):
            return self._range_index_table(low, high)
        return self._range_btree(low, high)

    def search(self, key: bytes) -> TraversalTrace:
        return self.range_search(key, key)

    # -- binary table representation ([3]) ----------------------------------

    def _range_index_table(self, low: bytes, high: bytes) -> TraversalTrace:
        index = self._structure
        rounds = 0
        shipped = 0
        results: list[tuple[bytes, int]] = []
        if index.root_id == NO_REF:
            return TraversalTrace(results, rounds, 0, 0)
        codec = index.codec
        current = index.row(index.root_id)
        while not current.is_leaf:
            rounds += 1  # server ships the node; client answers left/right
            shipped += len(current.payload)
            sep_key, _ = codec.decode(
                current.payload, current.refs(index.index_table_id)
            )
            next_id = current.left if low <= sep_key else current.right
            current = index.row(next_id)

        row_id = current.row_id
        while row_id != NO_REF:
            rounds += 1  # each leaf fetch is one more round
            leaf = index.row(row_id)
            if not leaf.deleted:
                shipped += len(leaf.payload)
                key, table_row = codec.decode(
                    leaf.payload, leaf.refs(index.index_table_id)
                )
                if key > high:
                    break
                if key >= low and table_row is not None:
                    results.append((key, table_row))
            row_id = leaf.sibling
        return TraversalTrace(results, rounds, rounds, shipped)

    # -- d-ary B⁺-tree --------------------------------------------------------

    def _range_btree(self, low: bytes, high: bytes) -> TraversalTrace:
        tree = self._structure
        rounds = 0
        shipped = 0
        results: list[tuple[bytes, int]] = []
        node = tree.node(tree.root_id)
        while not node.is_leaf:
            rounds += 1
            shipped += sum(len(entry.payload) for entry in node.entries)
            position = len(node.entries)
            for slot in range(len(node.entries)):
                key, _ = tree.codec.decode(
                    node.entries[slot].payload, tree.entry_refs(node, slot)
                )
                if low <= key:
                    position = slot
                    break
            node = tree.node(node.children[position])

        while True:
            rounds += 1
            shipped += sum(len(entry.payload) for entry in node.entries)
            for slot in range(len(node.entries)):
                key, table_row = tree.codec.decode(
                    node.entries[slot].payload, tree.entry_refs(node, slot)
                )
                if key > high:
                    return TraversalTrace(results, rounds, rounds, shipped)
                if key >= low and table_row is not None:
                    results.append((key, table_row))
            if node.next_leaf == NO_REF:
                return TraversalTrace(results, rounds, rounds, shipped)
            node = tree.node(node.next_leaf)
