"""Write-ahead journal and checkpoint blob formats.

Storage is the paper's untrusted channel, so journal records cannot be
trusted to be *well-formed* (torn appends) or *authentic* (an
adversary, or a firmware bug, rewriting the tail).  Both concerns meet
in one rule: a record counts as **committed** exactly when it parses
completely under the storage framing *and* its MAC verifies.  Replay
truncates at the first record failing either test — a torn tail and a
forged tail are indistinguishable on purpose.

Journal blob layout (framing reuses the storage helpers, so every
parse failure is a :class:`~repro.errors.StorageFormatError` with an
offset, never a raw ``struct.error``)::

    WAL_MAGIC ∥ int(generation) ∥ record*
    record := int(seq) ∥ text(op) ∥ bytes(payload) ∥ bytes(tag)
    tag    := MAC(seq_be8 ∥ op_utf8 ∥ payload)          # the commit marker

Checkpoint blob layout::

    CKPT_MAGIC ∥ int(generation) ∥ int(applied_seq)
              ∥ bytes(image) ∥ bytes(tag)
    tag := MAC(generation_be8 ∥ applied_seq_be8 ∥ image)

``generation`` ties a journal to the checkpoint epoch it extends;
``applied_seq`` is the last journal sequence number folded into the
image, so records at or below it are never replayed twice.  The MAC key
should be derived for this single purpose
(:func:`journal_mac` uses ``KeyRing.derive("journal-mac")``), keeping
the key separation the paper's Sect. 3.3 attack punishes [12] for
lacking.
"""

from __future__ import annotations

import hashlib
import io
import struct
from dataclasses import dataclass, field

from repro.core.keys import KeyRing
from repro.engine.storage import _Reader, _write_bytes, _write_int, _write_text
from repro.errors import DiskError, StorageFormatError
from repro.mac.base import MAC
from repro.mac.hmac_mac import HMACMAC
from repro.observability.trace import TRACER as _TRACER

from repro.durability.vdisk import VirtualDisk

WAL_MAGIC = b"REPROWAL1"
CKPT_MAGIC = b"REPROCKP1"

#: Blob names the durable-database protocol uses on its disk.
JOURNAL_BLOB = "wal"
CHECKPOINT_BLOB = "checkpoint"
JOURNAL_TMP = "wal.tmp"
CHECKPOINT_TMP = "checkpoint.tmp"

#: KeyRing purpose for the journal MAC — independent of every data key.
JOURNAL_MAC_PURPOSE = "journal-mac"


def journal_mac(keys: KeyRing) -> MAC:
    """The journal's commit-marker MAC: HMAC-SHA256 under its own key."""
    return HMACMAC(keys.derive(JOURNAL_MAC_PURPOSE, 32))


@dataclass(frozen=True)
class JournalRecord:
    """One journaled engine mutation."""

    seq: int
    op: str
    payload: bytes

    def mac_message(self) -> bytes:
        """The bytes the commit marker authenticates."""
        return struct.pack(">q", self.seq) + self.op.encode("utf-8") + self.payload


def encode_record(record: JournalRecord, mac: MAC) -> bytes:
    """One record, framed and committed (MAC tag appended)."""
    out = io.BytesIO()
    _write_int(out, record.seq)
    _write_text(out, record.op)
    _write_bytes(out, record.payload)
    _write_bytes(out, mac.tag(record.mac_message()))
    return out.getvalue()


def encode_journal_header(generation: int) -> bytes:
    out = io.BytesIO()
    out.write(WAL_MAGIC)
    _write_int(out, generation)
    return out.getvalue()


@dataclass
class JournalScan:
    """Everything one pass over a journal blob establishes.

    ``records`` holds the committed prefix; ``truncated_at`` is the blob
    offset of the first byte that did not commit (None when the whole
    blob committed), with ``truncated_reason`` saying why.
    """

    generation: int = 0
    header_ok: bool = False
    records: list[JournalRecord] = field(default_factory=list)
    truncated_at: int | None = None
    truncated_reason: str | None = None

    @property
    def clean(self) -> bool:
        return self.header_ok and self.truncated_at is None


def scan_journal(blob: bytes, mac: MAC) -> JournalScan:
    """Parse a journal blob, truncating at the first torn or
    unauthenticated suffix.  Never raises on malformed input."""
    scan = JournalScan()
    reader = _Reader(blob)
    try:
        reader.expect(WAL_MAGIC)
        scan.generation = reader.read_int()
    except StorageFormatError as exc:
        scan.truncated_at = 0
        scan.truncated_reason = f"unusable journal header: {exc}"
        return scan
    scan.header_ok = True

    previous_seq: int | None = None
    while reader.remaining:
        record_start = reader.offset
        try:
            seq = reader.read_int()
            op = reader.read_text()
            payload = reader.read_bytes()
            tag = reader.read_bytes()
        except StorageFormatError as exc:
            scan.truncated_at = record_start
            scan.truncated_reason = f"torn record: {exc}"
            return scan
        record = JournalRecord(seq, op, payload)
        if not mac.verify(record.mac_message(), tag):
            scan.truncated_at = record_start
            scan.truncated_reason = "unauthenticated record (bad commit marker)"
            return scan
        if previous_seq is not None and seq != previous_seq + 1:
            scan.truncated_at = record_start
            scan.truncated_reason = (
                f"sequence break: record {seq} after {previous_seq}"
            )
            return scan
        previous_seq = seq
        scan.records.append(record)
    return scan


class Journal:
    """The append-only journal blob on one disk."""

    def __init__(
        self, disk: VirtualDisk, mac: MAC, name: str = JOURNAL_BLOB
    ) -> None:
        self._disk = disk
        self._mac = mac
        self.name = name

    def exists(self) -> bool:
        return self._disk.exists(self.name)

    def reset(self, generation: int) -> None:
        """Start a fresh, empty journal atomically (temp + rename)."""
        tmp = self.name + ".tmp"
        self._disk.write(tmp, encode_journal_header(generation))
        self._disk.sync(tmp)
        self._disk.rename(tmp, self.name)

    def append(self, record: JournalRecord) -> None:
        """Append one record and make it durable — the commit point."""
        if _TRACER.enabled:
            with _TRACER.span("wal.append", op=record.op) as span:
                encoded = encode_record(record, self._mac)
                span.add_cost("bytes_written", len(encoded))
                self._disk.append(self.name, encoded)
                self._disk.sync(self.name)
            return
        self._disk.append(self.name, encode_record(record, self._mac))
        self._disk.sync(self.name)

    def scan(self) -> JournalScan:
        """Scan the blob; a missing journal reads as empty-and-torn."""
        if _TRACER.enabled:
            with _TRACER.span("wal.scan") as span:
                scan = self._scan()
                span.add_cost("records", len(scan.records))
                return scan
        return self._scan()

    def _scan(self) -> JournalScan:
        try:
            blob = self._disk.read(self.name)
        except DiskError:
            scan = JournalScan()
            scan.truncated_at = 0
            scan.truncated_reason = "journal blob missing"
            return scan
        return scan_journal(blob, self._mac)


# ---------------------------------------------------------------------------
# Checkpoint blob
# ---------------------------------------------------------------------------

@dataclass
class CheckpointRecord:
    """A decoded checkpoint blob plus its verification status.

    ``status`` is ``"ok"``, ``"unauthenticated"`` (framed fine, MAC
    failed — the image bytes are still available for resilient salvage),
    or ``"malformed"`` (framing broke; ``image`` holds whatever prefix
    could be extracted, possibly ``None``).  ``digest`` is the SHA-256
    of the whole blob, whatever its status.
    """

    status: str
    generation: int = 0
    applied_seq: int = 0
    image: bytes | None = None
    detail: str = ""
    digest: bytes = b""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _checkpoint_mac_message(generation: int, applied_seq: int, image: bytes) -> bytes:
    return struct.pack(">q", generation) + struct.pack(">q", applied_seq) + image


def encode_checkpoint(
    generation: int, applied_seq: int, image: bytes, mac: MAC
) -> bytes:
    tag = mac.tag(_checkpoint_mac_message(generation, applied_seq, image))
    # One join: the image is copied once, into the blob.
    return b"".join((
        CKPT_MAGIC,
        struct.pack(">qqI", generation, applied_seq, len(image)),
        image,
        struct.pack(">I", len(tag)),
        tag,
    ))


def decode_checkpoint(blob: bytes, mac: MAC) -> CheckpointRecord:
    """Decode and verify a checkpoint blob.  Never raises: a damaged
    blob comes back with a non-``ok`` status and best-effort fields."""
    reader = _Reader(blob)
    record = CheckpointRecord(
        status="malformed", digest=hashlib.sha256(blob).digest()
    )
    try:
        reader.expect(CKPT_MAGIC)
        record.generation = reader.read_int()
        record.applied_seq = reader.read_int()
        record.image = reader.read_bytes()
    except StorageFormatError as exc:
        record.detail = str(exc)
        return record
    try:
        tag = reader.read_bytes()
    except StorageFormatError as exc:
        record.status = "unauthenticated"
        record.detail = f"commit tag unreadable: {exc}"
        return record
    if reader.remaining:
        record.status = "unauthenticated"
        record.detail = f"{reader.remaining} trailing byte(s) after checkpoint tag"
        return record
    message = _checkpoint_mac_message(
        record.generation, record.applied_seq, record.image
    )
    if not mac.verify(message, tag):
        record.status = "unauthenticated"
        record.detail = "checkpoint MAC failed verification"
        return record
    record.status = "ok"
    return record
