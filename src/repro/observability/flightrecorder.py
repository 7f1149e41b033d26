"""The flight recorder: an always-on black box for incident forensics.

Every other observability layer is *opt-in* (metrics, audit, telemetry
all default to off) because they exist to answer questions the operator
already decided to ask.  Incidents do not wait for that decision: when a
mount raises :class:`~repro.errors.StaleImageError` or a scrub reports
an unrepairable blob, the question "what happened in the minutes before"
can only be answered if someone was already listening.  The
:class:`FlightRecorder` is that listener — a bounded ring of structured
records that is **always on**, costs one lock + deque append per event,
holds no unbounded state, and can serialise itself to a schema-validated
``FLIGHT.json`` (``repro-flight/1``) at any moment.

Records arrive on five channels:

* ``audit`` — every security audit event (forwarded by
  :meth:`~repro.observability.audit.AuditLog.emit` whenever the audit
  log is enabled), with the wall-clock ``ts`` stripped so dumps stay
  deterministic;
* ``telemetry`` — one record per telemetry-hub tick, keeping the
  recorder's clock aligned with the hub's;
* ``alert`` — every health alert the
  :class:`~repro.observability.health.HealthEngine` fires;
* ``fault`` — the ground-truth channel: typed **injection** records
  emitted by the chaos/crash/fault campaigns, **detection** records
  emitted by the production detectors (scrubber MAC verdicts, trust
  anchors), and **resolved** records when an injected fault was healed
  or overwritten before any detector could see it;
* ``note`` — contextual breadcrumbs (WAL replay outcomes, read-repairs,
  freshness heals) that anchor forensic attribution without being
  graded signals themselves.

Time is the recorder's own **logical tick** — advanced explicitly by
campaign schedulers and implicitly by telemetry-hub ticks — so detection
latencies are stated in ticks and two seeded runs dump byte-identical
documents.  The ring respects ``capacity`` exactly: overflow evicts the
oldest record and counts the eviction against the *evicted record's*
channel, so a dump always states precisely what it no longer knows.

This module imports nothing from the rest of the package (stdlib only):
it sits below ``audit``/``timeseries``/``health`` in the import graph so
the lowest layers (trust anchors, replica sets, the scrubber) can report
to it without cycles.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from pathlib import Path

FLIGHT_SCHEMA = "repro-flight/1"

#: Records retained in the ring; evictions beyond this are counted per
#: channel, never hidden.
DEFAULT_CAPACITY = 4096

#: Every channel a record may arrive on.
CHANNELS = ("audit", "telemetry", "alert", "fault", "note")

#: The fault-record kinds carried on the ``fault`` channel.
FAULT_KINDS = ("injection", "detection", "resolved")

#: Ground-truth fault classes the campaigns inject.
CLASS_TAMPER = "tamper"  # MAC-covered single-replica corruption
CLASS_ROLLBACK = "rollback"  # lockstep restore of an earlier snapshot
CLASS_UNREPAIRABLE = "unrepairable"  # no authentic replica copy left
CLASS_CRASH = "crash"  # whole-host power cut + remount
CLASS_STORAGE_FAULT = "storage-fault"  # robustness-campaign image fault

#: Classes whose detection the CI scorecard gates at 100 %: the AEAD/MAC
#: machinery makes these detectable *by construction*, so anything short
#: of full detection is a regression.  ``crash`` and ``storage-fault``
#: are reported but not gated — the broken [3]/[12] schemes corrupt
#: silently by design, which is the paper's point, not a bug.
GATED_CLASSES = (CLASS_TAMPER, CLASS_ROLLBACK, CLASS_UNREPAIRABLE)


def _jsonable(value):
    """Coerce one field value to something ``json.dumps`` accepts."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (bytes, bytearray)):
        return bytes(value).hex()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, Path):
        return str(value)
    return repr(value)


class FlightRecorder:
    """A bounded, logical-clock ring of structured incident records."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._lock = threading.RLock()
        self._records: deque[dict] = deque()
        self.dropped: dict[str, int] = {}
        self._seq = 0
        self._tick = 0
        self._injections = 0

    # -- the logical clock ---------------------------------------------------

    @property
    def current_tick(self) -> int:
        return self._tick

    def tick(self) -> int:
        """Advance the recorder's clock (campaign event boundaries)."""
        with self._lock:
            self._tick += 1
            return self._tick

    # -- recording -----------------------------------------------------------

    def record(self, channel: str, kind: str, **fields) -> dict:
        """Append one record; evict (and account) the oldest on overflow."""
        if channel not in CHANNELS:
            raise ValueError(f"unknown channel {channel!r}")
        with self._lock:
            self._seq += 1
            entry = {
                "seq": self._seq,
                "tick": self._tick,
                "channel": channel,
                "kind": kind,
                "fields": {str(k): _jsonable(v) for k, v in fields.items()},
            }
            if len(self._records) == self.capacity:
                evicted = self._records.popleft()
                bucket = evicted["channel"]
                self.dropped[bucket] = self.dropped.get(bucket, 0) + 1
            self._records.append(entry)
            return entry

    def note(self, kind: str, **fields) -> None:
        """A contextual breadcrumb: timeline evidence, not a graded signal."""
        self.record("note", kind, **fields)

    def record_audit(self, event: dict) -> None:
        """Mirror one audit event (called by ``AuditLog.emit``); the
        wall-clock ``ts`` is stripped so dumps stay deterministic."""
        fields = {k: v for k, v in event.items() if k not in ("kind", "ts", "seq")}
        fields["audit_seq"] = event.get("seq")
        self.record("audit", event["kind"], **fields)

    def record_hub_tick(self, hub_tick: int, series_count: int) -> None:
        """Mirror one telemetry tick and advance the recorder clock with it."""
        with self._lock:
            self._tick += 1
        self.record(
            "telemetry", "hub.tick", hub_tick=hub_tick, series=series_count
        )

    def record_alert(self, alert: dict) -> None:
        """Record one fired health alert."""
        fields = dict(alert)
        rule = str(fields.pop("rule", "unknown"))
        self.record("alert", rule, **fields)

    # -- ground truth --------------------------------------------------------

    def record_injection(self, fault_class: str, **context) -> str:
        """Record one ground-truth fault injection; returns its id."""
        with self._lock:
            self._injections += 1
            injection_id = f"inj-{self._injections}"
        self.record(
            "fault", "injection", id=injection_id, **{"class": fault_class}, **context
        )
        return injection_id

    def record_detection(self, fault_class: str, **context) -> None:
        """Record one detector firing (scrub MAC verdict, trust anchor…)."""
        self.record("fault", "detection", **{"class": fault_class}, **context)

    def resolve_injection(self, injection_id: str, reason: str, **context) -> None:
        """Record that an injected fault stopped being detectable — it
        was overwritten by a legitimate write or healed by a vote before
        any MAC-level detector saw it.  The forensic join drops resolved
        injections from the detectable denominator (unless a detection
        already closed them, in which case the resolution is ignored)."""
        self.record("fault", "resolved", id=injection_id, reason=reason, **context)

    # -- introspection -------------------------------------------------------

    def records(self, channel: str | None = None) -> list[dict]:
        with self._lock:
            entries = list(self._records)
        if channel is None:
            return entries
        return [entry for entry in entries if entry["channel"] == channel]

    def reset(self) -> None:
        """Forget everything: records, drops, clocks."""
        with self._lock:
            self._records.clear()
            self.dropped = {}
            self._seq = 0
            self._tick = 0
            self._injections = 0

    # -- the dump ------------------------------------------------------------

    def snapshot(self, reason: str = "explicit", meta: dict | None = None) -> dict:
        """The full ``repro-flight/1`` document, JSON-ready."""
        from repro.observability.trace import TRACER  # leaf module; cold path

        finished = TRACER.finished()
        by_name: dict[str, int] = {}
        for span in finished:
            by_name[span.name] = by_name.get(span.name, 0) + 1
        with self._lock:
            records = list(self._records)
            doc = {
                "schema": FLIGHT_SCHEMA,
                "reason": reason,
                "ticks": self._tick,
                "capacity": self.capacity,
                "dropped": dict(sorted(self.dropped.items())),
                "records": records,
                "spans": {
                    "finished": len(finished),
                    "dropped": TRACER.dropped,
                    "by_name": dict(sorted(by_name.items())),
                },
            }
        if meta is not None:
            doc["meta"] = meta
        return doc


# -- document plumbing -------------------------------------------------------


def validate_flight_report(doc: dict) -> list[str]:
    """Structural checks on a flight document; returns problem strings."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["flight document is not an object"]
    if doc.get("schema") != FLIGHT_SCHEMA:
        problems.append(f"schema is {doc.get('schema')!r}, expected {FLIGHT_SCHEMA!r}")
    if not isinstance(doc.get("reason"), str) or not doc.get("reason"):
        problems.append("reason must be a non-empty string")
    ticks = doc.get("ticks")
    if not isinstance(ticks, int) or ticks < 0:
        problems.append("ticks must be a non-negative integer")
    capacity = doc.get("capacity")
    if not isinstance(capacity, int) or capacity < 1:
        problems.append("capacity must be a positive integer")
    dropped = doc.get("dropped")
    if not isinstance(dropped, dict):
        problems.append("dropped must be an object")
    else:
        for channel, count in dropped.items():
            if channel not in CHANNELS:
                problems.append(f"dropped names unknown channel {channel!r}")
            if not isinstance(count, int) or count < 0:
                problems.append(f"dropped[{channel!r}] must be a non-negative int")
    spans = doc.get("spans")
    if not isinstance(spans, dict):
        problems.append("spans must be an object")
    else:
        for key in ("finished", "dropped"):
            if not isinstance(spans.get(key), int) or spans.get(key, -1) < 0:
                problems.append(f"spans.{key} must be a non-negative integer")
        if not isinstance(spans.get("by_name"), dict):
            problems.append("spans.by_name must be an object")
    records = doc.get("records")
    if not isinstance(records, list):
        problems.append("records must be an array")
        return problems
    last_seq = 0
    last_tick = -1
    for i, entry in enumerate(records):
        where = f"records[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{where} is not an object")
            continue
        seq = entry.get("seq")
        if not isinstance(seq, int) or seq <= last_seq:
            problems.append(f"{where}: seq must increase strictly")
        else:
            last_seq = seq
        tick = entry.get("tick")
        if not isinstance(tick, int) or tick < 0:
            problems.append(f"{where}: tick must be a non-negative integer")
        elif tick < last_tick:
            problems.append(f"{where}: tick moved backwards")
        else:
            last_tick = tick
        if entry.get("channel") not in CHANNELS:
            problems.append(f"{where}: unknown channel {entry.get('channel')!r}")
        if not isinstance(entry.get("kind"), str) or not entry.get("kind"):
            problems.append(f"{where}: kind must be a non-empty string")
        fields = entry.get("fields")
        if not isinstance(fields, dict):
            problems.append(f"{where}: fields must be an object")
            continue
        if entry.get("channel") == "fault":
            kind = entry.get("kind")
            if kind not in FAULT_KINDS:
                problems.append(f"{where}: fault kind {kind!r} not in {FAULT_KINDS}")
                continue
            if kind in ("injection", "detection") and not fields.get("class"):
                problems.append(f"{where}: fault {kind} needs a class")
            if kind in ("injection", "resolved") and not fields.get("id"):
                problems.append(f"{where}: fault {kind} needs an id")
    return problems


def write_flight(doc: dict, path: str | Path) -> Path:
    """Validate and write one flight document (sorted keys, trailing
    newline); an invalid document refuses to hit the disk."""
    problems = validate_flight_report(doc)
    if problems:
        raise ValueError(
            "refusing to write an invalid flight report: " + "; ".join(problems)
        )
    target = Path(path)
    target.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return target


def load_flight(path: str | Path) -> dict:
    """Read and validate one flight document."""
    target = Path(path)
    try:
        doc = json.loads(target.read_text())
    except OSError as exc:
        raise ValueError(f"cannot read flight report {target}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{target} is not JSON: {exc}") from None
    problems = validate_flight_report(doc)
    if problems:
        raise ValueError(f"{target} is not a valid flight report: {problems[0]}")
    return doc


#: The process-wide black box every layer reports to.
RECORDER = FlightRecorder()
