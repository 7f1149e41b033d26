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
structures and counts the rounds, feeding benchmark X3.  It follows no
link itself: it drives the structure's own walk (``descend`` and
``leaves``, with their cycle and dangling-link checks) with its own
decode, which always verifies, and counts a round per node shipped.
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
        trace = TraversalTrace([], 0, 0)
        if isinstance(self._structure, IndexTable):
            entries = self._index_table_entries(trace, low)
        else:
            entries = self._btree_entries(trace, low)
        for key, table_row in entries:
            if key > high:
                break
            if key >= low and table_row is not None:
                trace.results.append((key, table_row))
        trace.nodes_fetched = trace.rounds
        return trace

    def search(self, key: bytes) -> TraversalTrace:
        return self.range_search(key, key)

    # Each generator yields the decoded leaf entries from the leaf ``low``
    # routes to, in chain order, and counts into ``trace`` what the server
    # shipped to get there.  The client decodes with the codec itself:
    # it holds the key, and no server-side cache stands in for it.

    def _index_table_entries(self, trace: TraversalTrace, low: bytes):
        index = self._structure
        if index.root_id == NO_REF:
            return
        codec, table_id = index.codec, index.index_table_id

        def decode(row):
            return codec.decode(row.payload, row.refs(table_id))

        def ship(row) -> None:  # one round; the client answers left/right
            trace.rounds += 1
            trace.bytes_transferred += len(row.payload)

        leaf, _ = index.descend(index.router(low, decode), ship)
        for row in index.leaves(leaf.row_id):
            if row.deleted:
                trace.rounds += 1  # a tombstone costs a round, ships nothing
            else:
                ship(row)
                yield decode(row)

    def _btree_entries(self, trace: TraversalTrace, low: bytes):
        tree = self._structure
        codec = tree.codec

        def decode(node, slot):
            return codec.decode(node.entries[slot].payload, tree.entry_refs(node, slot))

        def ship(node) -> None:  # one round; the client answers which child
            trace.rounds += 1
            trace.bytes_transferred += sum(len(entry.payload) for entry in node.entries)

        leaf, _ = tree.descend(tree.router(low, decode), ship)
        for node in tree.leaves(leaf.node_id):
            ship(node)
            for slot in range(len(node.entries)):
                yield decode(node, slot)
