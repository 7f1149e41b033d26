"""Append-only security-event audit log (off by default).

The attacks of Sect. 3 all work from *observable* artifacts — shared
CBC ciphertext prefixes, locally malleable blocks slipping past µ,
linkable index accesses.  This module records exactly those artifacts
as structured JSONL events so an operator can audit what a workload
actually exposed to storage, online (see
:mod:`repro.observability.leakmon`) or after the fact.

Design rules, matching :mod:`repro.observability.metrics`:

1. **Off by default.**  ``AUDIT.enabled`` starts False and every emit
   path begins with that one attribute check, so an un-enabled process
   behaves — and stores — byte-for-byte like an unaudited one.
2. **Observe, never participate.**  Hooks wrap codecs at construction
   time (``maybe_audit_*``, mirroring ``maybe_instrument_*``) and only
   look at the bytes flowing through; they draw no randomness and alter
   no ciphertext, so storage images stay byte-identical with auditing
   enabled (pinned by ``tests/observability``).
3. **No plaintext, no ciphertext.**  Events carry truncated SHA-256
   digests of ciphertext blocks — enough to measure equality/prefix
   leakage, nothing an audit-log reader could decrypt with.
4. **Deterministic replay.**  Events are sequence-numbered and encoded
   with sorted keys; the wall-clock timestamp is the only
   non-deterministic field and lives in its own ``ts`` key that
   :func:`canonical_lines` strips.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.aead.base import comparable_ciphertext
from repro.observability.flightrecorder import RECORDER

#: Cipher block size every scheme in the repo uses for leakage analysis.
BLOCK_SIZE = 16

#: Upper bound on digests recorded per event (events stay small even for
#: pathological cell sizes; every estimator looks at the first blocks).
MAX_DIGEST_BLOCKS = 8

#: Hex characters kept per block digest (48 bits — collision-free for
#: workload-sized populations, useless for decryption).
DIGEST_HEX = 12


class AuditError(Exception):
    """A malformed audit log (unreadable, truncated, or non-JSONL)."""


def block_digests(data: bytes, limit: int = MAX_DIGEST_BLOCKS) -> list[str]:
    """Truncated SHA-256 of each *full* leading ciphertext block."""
    full = len(data) // BLOCK_SIZE
    return [
        hashlib.sha256(
            data[i * BLOCK_SIZE : (i + 1) * BLOCK_SIZE]
        ).hexdigest()[:DIGEST_HEX]
        for i in range(min(full, limit))
    ]


class AuditLog:
    """A process-wide, append-only stream of security events.

    Events are dicts with a ``kind`` plus kind-specific fields; every
    event gets a monotonic ``seq`` and (optionally) a wall-clock ``ts``.
    Consumers subscribe for online processing; an optional JSONL sink
    persists the stream.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.record_timestamps = True
        self._lock = threading.Lock()
        self._seq = 0
        self._buffer: list[dict] = []
        self._sink = None
        self._consumers: list[Callable[[dict], None]] = []

    # -- lifecycle ----------------------------------------------------------

    def enable(
        self,
        sink_path: str | Path | None = None,
        timestamps: bool = True,
    ) -> None:
        """Start recording; optionally append JSONL lines to a file."""
        with self._lock:
            if sink_path is not None:
                self._sink = open(sink_path, "a", encoding="utf-8")
            self.record_timestamps = timestamps
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False
        with self._lock:
            if self._sink is not None:
                self._sink.close()
                self._sink = None

    def reset(self) -> None:
        """Drop buffered events, close the sink, restart numbering."""
        self.disable()
        with self._lock:
            self._seq = 0
            self._buffer = []
            self._consumers = []

    # -- consumers ----------------------------------------------------------

    def subscribe(self, consumer: Callable[[dict], None]) -> None:
        self._consumers.append(consumer)

    def unsubscribe(self, consumer: Callable[[dict], None]) -> None:
        if consumer in self._consumers:
            self._consumers.remove(consumer)

    # -- emission -----------------------------------------------------------

    def emit(self, kind: str, **fields: Any) -> None:
        """Record one event; a no-op while the log is disabled."""
        if not self.enabled:
            return
        with self._lock:
            self._seq += 1
            event: dict = {"kind": kind, "seq": self._seq}
            if self.record_timestamps:
                event["ts"] = time.time()
            event.update(fields)
            self._buffer.append(event)
            if self._sink is not None:
                self._sink.write(encode_line(event) + "\n")
        for consumer in self._consumers:
            consumer(event)
        RECORDER.record_audit(event)

    def events(self) -> list[dict]:
        return list(self._buffer)


#: The process-wide audit log every hook reports to.
AUDIT = AuditLog()


# -- serialisation ----------------------------------------------------------


def encode_line(event: dict) -> str:
    """One event as a canonical JSONL line (sorted keys, no spaces)."""
    return json.dumps(event, sort_keys=True, separators=(",", ":"))


def canonical_lines(events: Iterable[dict]) -> list[str]:
    """Deterministic serialisation: identical workloads give identical
    lines because the wall-clock ``ts`` field is dropped."""
    return [
        encode_line({k: v for k, v in event.items() if k != "ts"})
        for event in events
    ]


def write_events(path: str | Path, events: Iterable[dict]) -> Path:
    path = Path(path)
    path.write_text("".join(encode_line(e) + "\n" for e in events))
    return path


def read_events(path: str | Path) -> list[dict]:
    """Parse a JSONL audit log; raises :class:`AuditError` on garbage."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise AuditError(f"cannot read audit log {path}: {exc}") from None
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise AuditError(
                f"{path}:{lineno}: not valid JSON ({exc.msg}) — "
                "truncated or corrupt audit log?"
            ) from None
        if not isinstance(event, dict) or "kind" not in event:
            raise AuditError(
                f"{path}:{lineno}: not an audit event object (missing 'kind')"
            )
        events.append(event)
    return events


# -- codec hooks ------------------------------------------------------------


def _unwrap(codec: Any) -> Any:
    """The innermost codec behind any auditing wrappers."""
    return getattr(codec, "unwrapped", codec)


class AuditingCellCodec:
    """Wraps a cell codec; emits ``cell.encrypt`` / ``cell.decrypt``.

    Pure pass-through for the bytes: the stored form is exactly what the
    wrapped codec produced, so storage images are unchanged.
    """

    def __init__(self, inner) -> None:
        self._inner = inner

    @property
    def name(self) -> str:
        return self._inner.name

    @property
    def unwrapped(self):
        return _unwrap(self._inner)

    def __getattr__(self, attribute: str):
        if attribute == "_inner":
            raise AttributeError(attribute)
        return getattr(self._inner, attribute)

    def encode_cell(self, plaintext: bytes, address) -> bytes:
        stored = self._inner.encode_cell(plaintext, address)
        digests = block_digests(comparable_ciphertext(stored))
        AUDIT.emit(
            "cell.encrypt",
            scheme=self.name,
            table=address.table,
            row=address.row,
            col=address.column,
            bytes=len(stored),
            digests=digests,
        )
        return stored

    def decode_cell(self, stored: bytes, address) -> bytes:
        digests = block_digests(comparable_ciphertext(stored))
        try:
            plaintext = self._inner.decode_cell(stored, address)
        except Exception as exc:
            AUDIT.emit(
                "cell.decrypt",
                scheme=self.name,
                table=address.table,
                row=address.row,
                col=address.column,
                bytes=len(stored),
                digests=digests,
                ok=False,
                error=type(exc).__name__,
            )
            raise
        AUDIT.emit(
            "cell.decrypt",
            scheme=self.name,
            table=address.table,
            row=address.row,
            col=address.column,
            bytes=len(stored),
            digests=digests,
            ok=True,
        )
        return plaintext


class AuditingIndexCodec:
    """Wraps an index-entry codec; emits ``index.encode`` events (node
    writes) and ``index.decode`` events for failed verifications.

    ``decode_for_query`` is delegated *explicitly*: the codec ABC's
    default implementation always verifies, which would silently disable
    the faithful leaf bug the [12] reproduction depends on.
    """

    def __init__(
        self, inner, index_table_id: int, table_id: int, column_pos: int
    ) -> None:
        self._inner = inner
        self._index_table_id = index_table_id
        self._table_id = table_id
        self._column_pos = column_pos

    @property
    def name(self) -> str:
        return self._inner.name

    @property
    def unwrapped(self):
        return _unwrap(self._inner)

    def __getattr__(self, attribute: str):
        if attribute == "_inner":
            raise AttributeError(attribute)
        return getattr(self._inner, attribute)

    def _value_ciphertext(self, payload: bytes) -> bytes:
        # The [12] framing is public: the first component is Ẽ(V).  The
        # same split the Sect. 3.2 adversary performs.
        inner = self.unwrapped
        if hasattr(inner, "split_payload"):
            value_ct, _, _ = inner.split_payload(payload)
            return value_ct
        return comparable_ciphertext(payload)

    def encode(self, key: bytes, table_row, refs) -> bytes:
        payload = self._inner.encode(key, table_row, refs)
        AUDIT.emit(
            "index.encode",
            codec=self.name,
            index=self._index_table_id,
            table=self._table_id,
            col=self._column_pos,
            leaf=bool(refs.is_leaf),
            bytes=len(payload),
            digests=block_digests(self._value_ciphertext(payload)),
        )
        return payload

    def _audited_decode(self, operation, leaf: bool):
        try:
            return operation()
        except Exception as exc:
            AUDIT.emit(
                "index.decode",
                codec=self.name,
                index=self._index_table_id,
                table=self._table_id,
                col=self._column_pos,
                leaf=leaf,
                ok=False,
                error=type(exc).__name__,
            )
            raise

    def decode(self, payload: bytes, refs):
        return self._audited_decode(
            lambda: self._inner.decode(payload, refs), bool(refs.is_leaf)
        )

    def decode_for_query(self, payload: bytes, refs, at_leaf: bool):
        return self._audited_decode(
            lambda: self._inner.decode_for_query(payload, refs, at_leaf),
            bool(refs.is_leaf),
        )


class AuditingMAC:
    """Wraps a MAC; a failed ``verify`` emits ``mac.verify_failure``.

    ``MAC.verify`` reports by boolean, not by exception — the wrapper
    must return that boolean untouched.
    """

    def __init__(self, inner) -> None:
        self._inner = inner

    @property
    def unwrapped(self):
        return _unwrap(self._inner)

    def __getattr__(self, attribute: str):
        if attribute == "_inner":
            raise AttributeError(attribute)
        return getattr(self._inner, attribute)

    def tag(self, message: bytes) -> bytes:
        return self._inner.tag(message)

    def verify(self, message: bytes, tag: bytes) -> bool:
        ok = self._inner.verify(message, tag)
        if not ok:
            AUDIT.emit(
                "mac.verify_failure",
                mac=getattr(self._inner, "name", type(self.unwrapped).__name__),
            )
        return ok


def maybe_audit_cell_codec(codec):
    """Wrap iff auditing is enabled right now (construction-time switch,
    mirroring ``maybe_instrument_*``)."""
    return AuditingCellCodec(codec) if AUDIT.enabled else codec


def maybe_audit_index_codec(codec, index_table_id: int, table_id: int, column_pos: int):
    if AUDIT.enabled:
        return AuditingIndexCodec(codec, index_table_id, table_id, column_pos)
    return codec


def maybe_audit_mac(mac):
    return AuditingMAC(mac) if AUDIT.enabled else mac
