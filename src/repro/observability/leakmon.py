"""Streaming leakage monitor: audit events in, probe verdicts out.

Consumes the event stream of :mod:`repro.observability.audit` — online
via ``AUDIT.subscribe`` or offline via :meth:`LeakMonitor.feed_all` on a
replayed JSONL log — and maintains the same six probe verdicts as the
offline :mod:`repro.analysis.leakage` matrix:

* ``equality``       — two cells of one column share 4+ leading
  ciphertext blocks (attack E1: deterministic E makes equal plaintexts
  visible).
* ``prefix``         — two cells share their first ciphertext block
  (attack E2/E3: shared plaintext prefixes survive CBC with fixed IVs).
* ``frequency``      — one ciphertext pattern dominates a column (>50 %
  of 8+ samples), enough for histogram rank matching.
* ``index_linkage``  — a leaf index entry's value ciphertext collides
  with a cell of the indexed column (attacks E4/E6).
* ``cell_forgery``   — a cell decrypts *successfully* from bytes that
  differ from what the codec last wrote there (Sect. 3.3: blind
  modification accepted as valid).
* ``access_pattern`` — two queries touched the identical non-empty
  sequence of index nodes (Sect. 3.2: traces link repeated queries).

Every estimator is a monotone sketch over block digests: once leaked,
always leaked — which is the right semantics for an audit (the
adversary saw it).  Plaintext schemes are leaky by inspection, so
seeing a ``plain`` cell or index codec forces the corresponding
verdicts, exactly like the offline profiler.
"""

from __future__ import annotations

from repro.observability.audit import AUDIT
from repro.observability.metrics import MetricsRegistry

#: Offline probe names, in report order (mirrors analysis.leakage.PROBES
#: without importing it — observability stays below the analysis layer).
PROBES = (
    "equality",
    "prefix",
    "frequency",
    "index_linkage",
    "cell_forgery",
    "access_pattern",
)

#: Leading full blocks that must match before two cells count as equal
#: (the offline equality probe's ``min_blocks=4``).
EQUALITY_BLOCKS = 4

#: Minimum samples before a column's histogram is considered rankable.
FREQUENCY_MIN_SAMPLES = 8

#: Modal share above which the histogram is considered recoverable.
FREQUENCY_MODAL_SHARE = 0.5


class LeakMonitor:
    """Online leakage estimation over an audit-event stream.

    Feed it events (``feed`` / ``feed_all`` / ``AUDIT.subscribe``); read
    ``verdicts()`` at any point.  Counts are published to ``registry``
    as ``leak.*`` metrics so snapshots can be exported and diffed.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        if registry is None:
            registry = MetricsRegistry()
            registry.enable()
        self.registry = registry
        # (table, col) → digest-prefix key → count, per granularity.  The
        # first-block histogram serves both the prefix and the frequency
        # estimators.
        self._equality: dict[tuple, dict[tuple, int]] = {}
        self._prefix: dict[tuple, dict[str, int]] = {}
        # (table, col) → first-block digests, cells vs leaf index entries.
        self._cell_blocks: dict[tuple, set[str]] = {}
        self._index_blocks: dict[tuple, set[str]] = {}
        self._linkage_found = False
        # Last digests the codec wrote per cell address.
        self._written: dict[tuple, tuple] = {}
        self._forgery_accepted = 0
        self._forgery_rejected = 0
        # Query-trace grouping.
        self._query_depth = 0
        self._trace: list = []
        self._seen_traces: set[tuple] = set()
        self._linked_queries = 0
        self._plain_cells = False
        self._plain_index = False
        self._events = 0

    # -- ingestion ----------------------------------------------------------

    def feed(self, event: dict) -> None:
        """Consume one audit event (order-tolerant, duplicates harmless)."""
        self._events += 1
        self.registry.counter("leak.events").inc()
        kind = event.get("kind")
        if kind == "cell.encrypt":
            self._on_cell_encrypt(event)
        elif kind == "cell.decrypt":
            self._on_cell_decrypt(event)
        elif kind == "index.encode":
            self._on_index_encode(event)
        elif kind == "index.node_read":
            if self._query_depth > 0:
                self._trace.append((event.get("index"), event.get("node")))
        elif kind == "query.begin":
            if self._query_depth == 0:
                self._trace = []
            self._query_depth += 1
        elif kind == "query.end":
            self._query_depth = max(0, self._query_depth - 1)
            if self._query_depth == 0:
                self._on_query_trace(tuple(self._trace))

    def feed_all(self, events) -> None:
        for event in events:
            self.feed(event)

    # -- per-kind handlers --------------------------------------------------

    def _on_cell_encrypt(self, event: dict) -> None:
        if event.get("scheme") == "plain":
            self._plain_cells = True
        where = (event.get("table"), event.get("col"))
        digests = tuple(event.get("digests") or ())
        if not digests:
            return
        if len(digests) >= EQUALITY_BLOCKS:
            key = digests[:EQUALITY_BLOCKS]
            bucket = self._equality.setdefault(where, {})
            bucket[key] = bucket.get(key, 0) + 1
            if bucket[key] > 1:
                self.registry.counter("leak.equality.collisions").inc()
        first = digests[0]
        bucket = self._prefix.setdefault(where, {})
        bucket[first] = bucket.get(first, 0) + 1
        if bucket[first] > 1:
            self.registry.counter("leak.prefix.collisions").inc()
            self.registry.counter("leak.frequency.repeats").inc()
        self._cell_blocks.setdefault(where, set()).add(first)
        if first in self._index_blocks.get(where, ()):
            self._record_linkage()
        address = (event.get("table"), event.get("row"), event.get("col"))
        self._written[address] = digests

    def _on_cell_decrypt(self, event: dict) -> None:
        address = (event.get("table"), event.get("row"), event.get("col"))
        written = self._written.get(address)
        digests = tuple(event.get("digests") or ())
        if written is None or digests == written:
            return
        # Read of bytes the codec never wrote: a storage-level tamper.
        if event.get("ok"):
            self._forgery_accepted += 1
            self.registry.counter("leak.cell_forgery.accepted").inc()
        else:
            self._forgery_rejected += 1
            self.registry.counter("leak.cell_forgery.rejected").inc()

    def _on_index_encode(self, event: dict) -> None:
        if event.get("codec") == "plain":
            self._plain_index = True
        if not event.get("leaf"):
            return
        digests = event.get("digests") or ()
        if not digests:
            return
        where = (event.get("table"), event.get("col"))
        first = digests[0]
        self._index_blocks.setdefault(where, set()).add(first)
        if first in self._cell_blocks.get(where, ()):
            self._record_linkage()

    def _record_linkage(self) -> None:
        self._linkage_found = True
        self.registry.counter("leak.index_linkage.collisions").inc()

    def _on_query_trace(self, trace: tuple) -> None:
        if not trace:
            return
        if trace in self._seen_traces:
            self._linked_queries += 1
            self.registry.counter("leak.access_pattern.linked_queries").inc()
        self._seen_traces.add(trace)

    # -- verdicts -----------------------------------------------------------

    def _has_collision(self, buckets: dict[tuple, dict]) -> bool:
        return any(
            count > 1
            for bucket in buckets.values()
            for count in bucket.values()
        )

    def _frequency_leaks(self) -> bool:
        for bucket in self._prefix.values():
            total = sum(bucket.values())
            if total >= FREQUENCY_MIN_SAMPLES:
                if max(bucket.values()) > FREQUENCY_MODAL_SHARE * total:
                    return True
        return False

    def verdicts(self) -> dict[str, bool]:
        """Probe → leaked?, aligned with the offline profile matrix."""
        return {
            "equality": self._plain_cells or self._has_collision(self._equality),
            "prefix": self._plain_cells or self._has_collision(self._prefix),
            "frequency": self._plain_cells or self._frequency_leaks(),
            "index_linkage": self._plain_index or self._linkage_found,
            "cell_forgery": self._forgery_accepted > 0,
            "access_pattern": self._linked_queries > 0,
        }

    def summary(self) -> dict:
        """JSON-ready verdicts + metric snapshot for reports/exporters."""
        return {
            "events": self._events,
            "verdicts": self.verdicts(),
            "metrics": self.registry.snapshot(),
        }


def run_live_profile(
    config,
    label: str,
    rows: int = 24,
    seed: str = "leakage-profile",
    sink_path=None,
):
    """Run the leakage-profile workload with the audit log attached.

    Returns ``(monitor, events, offline_results)`` where
    ``offline_results`` comes from a *separate, audit-free* run of the
    identical seeded workload — the reference the streaming verdicts are
    cross-validated against (enabling auditing must never be allowed to
    influence its own reference measurement).
    """
    from repro.analysis.leakage import profile_configuration
    from repro.engine.codec import uncached

    monitor = LeakMonitor()
    AUDIT.reset()
    AUDIT.enable(sink_path=sink_path)
    AUDIT.subscribe(monitor.feed)
    try:
        # Every cell read emits its decode event: none is answered from
        # a verified-plaintext cache.
        with uncached():
            profile_configuration(config, label, rows=rows, seed=seed)
        events = AUDIT.events()
    finally:
        AUDIT.reset()
    offline = profile_configuration(config, label, rows=rows, seed=seed)
    return monitor, events, dict(offline.results)
