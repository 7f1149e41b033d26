"""The database substrate: schemas, heap tables, indexes, queries, storage.

This is the system the schemes of [3]/[12] (and the paper's fix) run on.
All encryption concerns are injected through two codec interfaces —
:class:`~repro.engine.database.CellCodec` for table cells and
:class:`~repro.engine.codec.IndexEntryCodec` for index entries — so the
engine itself is identical for the plaintext baseline and every
encrypted configuration (the paper's "structure preserving" property).
"""

from repro.engine.btree import BPlusTree
from repro.engine.codec import EntryRefs, IndexEntryCodec, PlainEntryCodec
from repro.engine.database import (
    CellCodec,
    Database,
    IndexInfo,
    PlainCellCodec,
)
from repro.engine.indextable import NO_REF, IndexRow, IndexTable
from repro.engine.integrity import IntegrityIssue, IntegrityReport, verify_database
from repro.engine.query import (
    AtLeastQuery,
    AtMostQuery,
    ColumnQuery,
    CountQuery,
    PointQuery,
    PrefixQuery,
    Query,
    QueryResult,
    RangeQuery,
    ScanQuery,
    run_all,
)
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.engine.storage import dump_database, load_database
from repro.engine.table import CellAddress, Table

__all__ = [
    "AtLeastQuery",
    "AtMostQuery",
    "BPlusTree",
    "CellAddress",
    "CellCodec",
    "Column",
    "ColumnQuery",
    "ColumnType",
    "CountQuery",
    "Database",
    "EntryRefs",
    "IndexEntryCodec",
    "IndexInfo",
    "IndexRow",
    "IndexTable",
    "IntegrityIssue",
    "IntegrityReport",
    "NO_REF",
    "PlainCellCodec",
    "PlainEntryCodec",
    "PointQuery",
    "PrefixQuery",
    "Query",
    "QueryResult",
    "RangeQuery",
    "ScanQuery",
    "Table",
    "TableSchema",
    "dump_database",
    "load_database",
    "run_all",
    "verify_database",
]
