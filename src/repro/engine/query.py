"""A small declarative query layer over :class:`~repro.engine.database.Database`.

The paper's threat model (Sect. 2.1) requires that the server "can
efficiently execute queries on the database using the encrypted indexes"
and that "no data is returned that does not belong to the answer".
These query objects are what the benchmarks and examples execute against
both the plaintext baseline and every encrypted configuration, so the
two claims can be checked like-for-like.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.engine.database import Database
from repro.errors import SchemaError
from repro.observability.trace import TRACER


@dataclass(frozen=True)
class QueryResult:
    """Rows matching a query, plus how they were found.

    ``degraded`` is True when an index exists on the queried column but
    is quarantined (failed verification after a restore from untrusted
    storage), so the engine answered from a verified full scan instead.
    The answer is still correct and authenticated — only the access path
    changed.
    """

    rows: tuple[tuple[int, tuple[Any, ...]], ...]
    used_index: bool
    degraded: bool = False

    def __len__(self) -> int:
        return len(self.rows)

    def row_ids(self) -> list[int]:
        return [row_id for row_id, _ in self.rows]

    def values(self, position: int) -> list[Any]:
        return [row[position] for _, row in self.rows]


class Query(ABC):
    """A query that can be executed against any Database."""

    table: str

    @abstractmethod
    def execute(self, db: Database) -> QueryResult:
        """Run the query, preferring an index when one applies."""


def _freeze(
    rows: Sequence[tuple[int, Sequence[Any]]],
    used_index: bool,
    degraded: bool = False,
) -> QueryResult:
    return QueryResult(
        rows=tuple((row_id, tuple(values)) for row_id, values in rows),
        used_index=used_index,
        degraded=degraded,
    )


#: The :class:`Database` method answering each kind of :class:`ColumnQuery`.
_SELECTS = {
    "point": "select_equals",
    "range": "select_range",
    "prefix": "select_prefix",
    "at_least": "select_at_least",
    "at_most": "select_at_most",
}


@dataclass(frozen=True)
class ColumnQuery(Query):
    """A key-interval predicate on one column.

    ``op`` is the query kind (``point``, ``range``, ``prefix``,
    ``at_least`` or ``at_most``); ``args`` are the arguments its
    ``Database.select_*`` method takes after the table and column.
    """

    table: str
    column: str
    op: str
    args: tuple[Any, ...]

    def __post_init__(self) -> None:
        if self.op not in _SELECTS:
            raise SchemaError(f"unknown query kind {self.op!r}")

    def execute(self, db: Database) -> QueryResult:
        name = f"query.{self.op}"
        with TRACER.span(name, table=self.table, column=self.column) as span:
            # A quarantined index is not usable, so the engine scans;
            # ``degraded`` records that the scan is a fallback.
            used_index = bool(db.indexes_on(self.table, self.column))
            degraded = not used_index and bool(
                db.quarantined_indexes_on(self.table, self.column)
            )
            select = getattr(db, _SELECTS[self.op])
            rows = select(self.table, self.column, *self.args)
            span.set_attribute("rows", len(rows))
            span.set_attribute("used_index", used_index)
            return _freeze(rows, used_index, degraded)


def PointQuery(table: str, column: str, value: Any) -> ColumnQuery:
    """``SELECT * FROM table WHERE column = value``."""
    return ColumnQuery(table, column, "point", (value,))


def RangeQuery(table: str, column: str, low: Any, high: Any) -> ColumnQuery:
    """``SELECT * FROM table WHERE low <= column <= high``."""
    return ColumnQuery(table, column, "range", (low, high))


def PrefixQuery(table: str, column: str, prefix: str) -> ColumnQuery:
    """``SELECT * FROM table WHERE column LIKE 'prefix%'`` (TEXT only)."""
    return ColumnQuery(table, column, "prefix", (prefix,))


def AtLeastQuery(table: str, column: str, low: Any) -> ColumnQuery:
    """``SELECT * FROM table WHERE column >= low``."""
    return ColumnQuery(table, column, "at_least", (low,))


def AtMostQuery(table: str, column: str, high: Any) -> ColumnQuery:
    """``SELECT * FROM table WHERE column <= high``."""
    return ColumnQuery(table, column, "at_most", (high,))


@dataclass(frozen=True)
class ScanQuery(Query):
    """Full-table scan with an optional row predicate on decoded values."""

    table: str
    predicate: Callable[[Sequence[Any]], bool] | None = None

    def execute(self, db: Database) -> QueryResult:
        with TRACER.span("query.scan", table=self.table) as span:
            rows = [
                (row_id, values)
                for row_id, values in db.scan(self.table)
                if self.predicate is None or self.predicate(values)
            ]
            span.set_attribute("rows", len(rows))
            return _freeze(rows, used_index=False)


@dataclass(frozen=True)
class CountQuery(Query):
    """``SELECT COUNT(*) FROM table`` (returns a single-cell result)."""

    table: str

    def execute(self, db: Database) -> QueryResult:
        return _freeze([(0, [db.count(self.table)])], used_index=False)


def run_all(db: Database, queries: Sequence[Query]) -> list[QueryResult]:
    """Execute a batch of queries in order (workload driver helper)."""
    return [query.execute(db) for query in queries]
