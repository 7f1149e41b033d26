"""The three benchmark workloads: seeded inputs, dict models, checked steps.

Every workload runs on ``EncryptionConfig.paper_fixed("eax")`` with the
``optimized`` cipher backend and is driven closed-loop by one client:
the next operation is drawn only after the previous one returned.

A workload separates *drawing* an operation from *executing* it.
:meth:`Workload.draw` takes the next operation from the seeded stream and
advances the dict model to the state the operation must produce;
:meth:`Workload.execute` runs it against the system and checks every
result against the model.  The draw never looks at the system, so the
same seed always gives the same inputs.

``read_mix``
    In-memory :class:`~repro.EncryptedDatabase`, B+-tree on ``id``, index
    table on ``payload``.  70 % Zipf-skewed point lookups on ``id``, 10 %
    uniform point lookups on ``payload``, 20 % range scans of width 1-100.
``write_journaled``
    :class:`~repro.durability.DurableDatabase` on a ``FileDisk`` with both
    indexes.  45 % insert, 25 % update of ``payload``, 10 % delete, 20 %
    ``get_row``, and a foreground checkpoint every 100 writes.
``recover_sharded``
    Two-shard :class:`~repro.sharding.keyspace.ShardedKeyspace` on a
    three-replica :class:`~repro.resilience.replica.MirroredDisk` of
    ``FileDisk`` replicas with a ``MemoryAnchor``.  One step is a cycle:
    a cold mount checked row by row, a scrub pass that must repair one
    bit-flipped replica blob, and an online rotation with a point query
    at every phase.  The replicas are restored before each mount.
"""

from __future__ import annotations

import bisect
import random
import shutil
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro import EncryptedDatabase, EncryptionConfig
from repro.core.keys import KeyChain
from repro.durability import DurableDatabase, FileDisk, MemoryDisk, journal_mac
from repro.durability.vdisk import VirtualDisk
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.resilience import scrub
from repro.resilience.anchor import MemoryAnchor
from repro.resilience.replica import MirroredDisk
from repro.sharding.keyspace import ShardedKeyspace

CONFIG = EncryptionConfig.paper_fixed("eax").with_(backend="optimized")
MASTER_KEY = b"perfbench-master-key-0123456789ab"
TABLE = "records"
SCHEMA = TableSchema(
    TABLE,
    [
        Column("id", ColumnType.INT),
        Column("payload", ColumnType.TEXT),
        Column("note", ColumnType.TEXT),
    ],
)

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
#: Text lengths are drawn per value, so record sizes vary.
_PAYLOAD_LEN = (16, 32)
_NOTE_LEN = (24, 56)
_ZIPF_S = 0.8  # the hottest 10 % of ids get about half the id lookups
_MAX_RANGE = 100
_CHECKPOINT_EVERY = 100


@dataclass(frozen=True)
class Sizes:
    """How big a workload's data set is and how long its traced pass runs."""

    rows: int
    #: recover_sharded only: rows committed after the checkpoint, which
    #: every cold mount replays from the journal.
    tail: int = 0
    #: Steps in each pass of the traced run (a fixed count, so the
    #: per-layer counters repeat exactly for a seed).
    trace_steps: int = 100
    #: Set-ups per end-to-end run; ``setup_s`` is their median.
    setups: int = 5


def plain_bytes(row: list) -> int:
    """User plaintext octets of one row (its canonical cell encodings)."""
    return sum(len(cell) for cell in SCHEMA.encode_row(row))


class Recorder:
    """Timed spans per operation kind, the failure tally, and counters.

    Every timed call is one attempted operation; a check that disagrees
    with the model, or an operation that raised, is a failure.
    ``between`` runs before every timed call that is not nested in
    another one, so it never adds to a measured span.
    """

    def __init__(self, between: Callable[[], None] = lambda: None) -> None:
        self.spans: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.counts: Counter = Counter()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._between = between
        self._depth = 0

    def call(self, kind: str, fn: Callable, *args) -> Any:
        self.attempted += 1
        if not self._depth:
            self._between()
        self._depth += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            self._depth -= 1
        self.spans[kind].append((start, time.perf_counter()))
        return result

    def check(self, ok: bool, what: Any) -> None:
        if not ok:
            self.fail(what, "result differs from the model")

    def fail(self, what: Any, why: Any) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{what}: {why}")


class _Rows:
    """Seeded rows with unique payloads (so payload lookups hit one row).

    Text lengths are dealt from decks (``lengths``), so every seed's
    rows hold about the same number of octets."""

    def __init__(self, lengths: random.Random) -> None:
        self._used: set[str] = set()
        self._lengths = {
            bounds: _Deck(lengths, range(bounds[0], bounds[1] + 1))
            for bounds in (_PAYLOAD_LEN, _NOTE_LEN)
        }

    def _text(self, rng: random.Random, bounds: tuple[int, int]) -> str:
        length = self._lengths[bounds].draw()
        return "".join(rng.choice(_LETTERS) for _ in range(length))

    def payload(self, rng: random.Random) -> str:
        while True:
            text = self._text(rng, _PAYLOAD_LEN)
            if text not in self._used:
                self._used.add(text)
                return text

    def row(self, rng: random.Random, key: int) -> list:
        return [key, self.payload(rng), self._text(rng, _NOTE_LEN)]

    def shuffled(self, rng: random.Random, count: int) -> list[list]:
        """``count`` rows with ids 0..count-1 in random order."""
        ids = list(range(count))
        rng.shuffle(ids)
        return [self.row(rng, key) for key in ids]


class _Deck:
    """Deals every value once per shuffled round.

    A short run then sees the same spread of values (op kinds, range
    widths) as a long one, which keeps run-to-run variation small
    without changing the distribution.
    """

    def __init__(self, rng: random.Random, values) -> None:
        self._rng = rng
        self._values = list(values)
        self._left: list = []

    def draw(self):
        if not self._left:
            self._left = self._values[:]
            self._rng.shuffle(self._left)
        return self._left.pop()


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


class Workload:
    """One closed-loop workload; subclasses fill in the hooks."""

    name = ""
    #: Latency kind reported as ``main_p50_ms``.
    main_kind = ""

    def __init__(
        self,
        seed: int,
        sizes: Sizes,
        workdir: Path,
        wrap_disk: Callable[[VirtualDisk], VirtualDisk] = lambda disk: disk,
    ) -> None:
        self.sizes = sizes
        self.workdir = Path(workdir)
        self.wrap_disk = wrap_disk
        self.model: dict[int, list] = {}
        self._data_rng = random.Random(f"{self.name}/data/{seed}")
        self._ops = random.Random(f"{self.name}/ops/{seed}")
        self._rows = _Rows(random.Random(f"{self.name}/lengths/{seed}"))
        self._dirs: list[Path] = []

    def _fresh_dir(self) -> Path:
        self.workdir.mkdir(parents=True, exist_ok=True)
        path = Path(tempfile.mkdtemp(prefix=self.name + "-", dir=self.workdir))
        self._dirs.append(path)
        return path

    def close(self) -> None:
        """Drop the files of the system under test (the model stays)."""
        for path in self._dirs:
            shutil.rmtree(path, ignore_errors=True)
        self._dirs.clear()

    def at_boundary(self) -> bool:
        """True where a measurement window may end."""
        return True

    def setup(self, rec: Recorder) -> None:
        """Build the system under test; every program call goes through
        ``rec.call("setup", ...)``, so probes can run between them."""
        raise NotImplementedError

    def draw(self) -> tuple:
        raise NotImplementedError

    def execute(self, op: tuple, rec: Recorder) -> None:
        raise NotImplementedError

    def finish(self, rec: Recorder) -> None:
        """Untimed checks after the measurement window."""

    def space_amp(self) -> float:
        raise NotImplementedError

    def model_bytes(self) -> int:
        return sum(plain_bytes(row) for row in self.model.values())


class ReadMix(Workload):
    name = "read_mix"
    main_kind = "range"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        n = self.sizes.rows
        self.rows = self._rows.shuffled(self._data_rng, n)
        self.model = {row[0]: row for row in self.rows}
        self._payloads = [row[1] for row in self.rows]
        self._by_payload = {row[1]: row[0] for row in self.rows}
        # Zipf over popularity ranks; a seeded permutation maps rank to id.
        self._hot = list(range(n))
        self._data_rng.shuffle(self._hot)
        total, self._cumulative = 0.0, []
        for rank in range(1, n + 1):
            total += rank ** -_ZIPF_S
            self._cumulative.append(total)
        self._kinds = _Deck(self._ops, ["id"] * 7 + ["payload"] + ["range"] * 2)
        self._payload_deck = _Deck(self._ops, self._payloads)
        self._lows = _Deck(self._ops, range(n))
        self._widths = _Deck(self._ops, range(1, _MAX_RANGE + 1))

    def setup(self, rec: Recorder) -> None:
        db = rec.call("setup", EncryptedDatabase, MASTER_KEY, CONFIG)
        rec.call("setup", db.create_table, SCHEMA)
        rec.call("setup", db.insert_many, TABLE, self.rows)
        rec.call("setup", lambda: db.create_index("by_id", TABLE, "id", kind="btree"))
        rec.call("setup", lambda: db.create_index("by_payload", TABLE, "payload",
                                                  kind="table"))
        self.db = db

    def draw(self) -> tuple:
        kind = self._kinds.draw()
        if kind == "id":
            point = self._ops.random() * self._cumulative[-1]
            rank = bisect.bisect_left(self._cumulative, point)
            return ("id", self._hot[min(rank, self.sizes.rows - 1)])
        if kind == "payload":
            return ("payload", self._payload_deck.draw())
        low = self._lows.draw()
        return ("range", low, low + self._widths.draw() - 1)

    def execute(self, op: tuple, rec: Recorder) -> None:
        if op[0] == "range":
            _, low, high = op
            got = rec.call("range", self.db.select_range, TABLE, "id", low, high)
            last = min(high, self.sizes.rows - 1)
            want = [self.model[key] for key in range(low, last + 1)]
        else:
            column, value = op
            got = rec.call("point", self.db.select_equals, TABLE, column, value)
            key = value if column == "id" else self._by_payload[value]
            want = [self.model[key]]
        rec.check([values for _, values in got] == want, op)

    def space_amp(self) -> float:
        from repro.engine.storage import dump_database

        return len(dump_database(self.db)) / self.model_bytes()


class WriteJournaled(Workload):
    name = "write_journaled"
    main_kind = "commit"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.rows = self._rows.shuffled(self._data_rng, self.sizes.rows)
        self.model = {row[0]: row for row in self.rows}
        self._live = [row[0] for row in self.rows]
        self._next_id = self.sizes.rows
        self._since_checkpoint = 0
        self._kinds = _Deck(
            self._ops, ["insert"] * 9 + ["update"] * 5 + ["delete"] * 2 + ["get"] * 4
        )

    def _open(self, disk: VirtualDisk, enc: EncryptedDatabase) -> DurableDatabase:
        return DurableDatabase.open(
            disk,
            journal_mac(enc.keys),
            cell_codec=enc.cell_codec,
            index_codec_factory=enc._build_index_codec,
        )

    def setup(self, rec: Recorder) -> None:
        # Preload through the journal on a memory disk, checkpoint, copy
        # the blobs to a real directory, and mount from there.
        enc = rec.call("setup", EncryptedDatabase, MASTER_KEY, CONFIG)
        memory = MemoryDisk()
        loader = rec.call("setup", self._open, memory, enc)
        rec.call("setup", loader.create_table, SCHEMA)
        self._row_of = {
            row[0]: rec.call("setup", loader.insert, TABLE, row) for row in self.rows
        }
        rec.call("setup", lambda: loader.create_index("by_id", TABLE, "id", kind="btree"))
        rec.call("setup", lambda: loader.create_index("by_payload", TABLE, "payload",
                                                      kind="table"))
        rec.call("setup", loader.checkpoint)
        self.path = self._fresh_dir()
        disk = self.wrap_disk(FileDisk(self.path))
        for name in memory.names():
            rec.call("setup", disk.write, name, memory.read(name))
            rec.call("setup", disk.sync, name)
        self.manager = rec.call("setup", self._open, disk, enc)
        self._since_checkpoint = 0

    def draw(self) -> tuple:
        ops = self._ops
        kind = self._kinds.draw()
        if kind == "insert" or len(self._live) < 2:
            row = self._rows.row(ops, self._next_id)
            self._next_id += 1
            self.model[row[0]] = row
            self._live.append(row[0])
            return ("insert", row)
        key = self._live[ops.randrange(len(self._live))]
        if kind == "update":
            payload = self._rows.payload(ops)
            self.model[key] = [key, payload, self.model[key][2]]
            return ("update", key, payload)
        if kind == "delete":
            del self.model[key]
            self._live.remove(key)
            return ("delete", key)
        return ("get", key)

    def execute(self, op: tuple, rec: Recorder) -> None:
        manager = self.manager
        kind = op[0]
        if kind == "get":
            row_id = self._row_of[op[1]]
            got = rec.call("point", manager.database.get_row, TABLE, row_id)
            rec.check(got == self.model[op[1]], op)
            return
        if kind == "insert":
            row = op[1]
            row_id = rec.call("commit", manager.insert, TABLE, row)
            rec.check(row_id not in self._row_of.values(), ("insert", row[0]))
            self._row_of[row[0]] = row_id
            rec.counts["user_bytes"] += plain_bytes(row)
        elif kind == "update":
            _, key, payload = op
            rec.call("commit", manager.update_value, TABLE, self._row_of[key],
                     "payload", payload)
            rec.counts["user_bytes"] += len(SCHEMA.columns[1].encode(payload))
        else:
            rec.call("commit", manager.delete_row, TABLE, self._row_of.pop(op[1]))
        self._since_checkpoint += 1
        if self._since_checkpoint == _CHECKPOINT_EVERY:
            rec.call("checkpoint", manager.checkpoint)
            self._since_checkpoint = 0

    def at_boundary(self) -> bool:
        # End on a checkpoint, so every window holds whole write epochs.
        return self._since_checkpoint == 0

    def finish(self, rec: Recorder) -> None:
        """Remount from the directory alone: every acknowledged write must
        be there, and the ``id`` index must find every sampled row.

        Payload lookups are not checked here: ``IndexTable.insert`` next
        to a tombstoned leaf loses the new entry, so after updates some
        payloads are not found (see README.md)."""
        enc = EncryptedDatabase(MASTER_KEY, CONFIG)
        again = rec.call("remount", self._open, FileDisk(self.path), enc)
        rows = {values[0]: values for _, values in again.database.scan(TABLE)}
        rec.check(rows == self.model, "remount")
        for key in list(self.model)[:: max(1, len(self.model) // 16)]:
            hits = again.database.select_equals(TABLE, "id", key)
            rec.check([values for _, values in hits] == [self.model[key]],
                      ("remount id", key))

    def space_amp(self) -> float:
        return _dir_bytes(self.path) / self.model_bytes()


class RecoverSharded(Workload):
    name = "recover_sharded"
    main_kind = "mount"
    shards = 2
    replicas = 3
    #: Shard mounts are pure Python, so under the interpreter lock a second
    #: mount thread adds no speed, only scheduler noise.
    workers = 1

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        total = self.sizes.rows + self.sizes.tail
        self.rows = self._rows.shuffled(self._data_rng, total)
        self.model = {row[0]: row for row in self.rows}
        self._keys = sorted(self.model)
        self._cycle = 0

    def _mirror(self) -> MirroredDisk:
        return MirroredDisk([self.wrap_disk(FileDisk(d)) for d in self._replica_dirs])

    def setup(self, rec: Recorder) -> None:
        root = self._fresh_dir()
        self._replica_dirs = [root / f"r{i}" for i in range(self.replicas)]
        anchor = MemoryAnchor()
        keyspace = rec.call("setup", lambda: ShardedKeyspace.open(
            self._mirror(), KeyChain.single(MASTER_KEY), CONFIG,
            shard_count=self.shards, workers=self.workers, anchor=anchor,
        ))
        rec.call("setup", keyspace.create_table, SCHEMA)
        rec.call("setup", lambda: keyspace.create_index("by_id", TABLE, "id",
                                                        kind="btree"))
        rec.call("setup", lambda: keyspace.create_index("by_payload", TABLE, "payload",
                                                        kind="table"))
        for row in self.rows[: self.sizes.rows]:
            rec.call("setup", keyspace.insert, TABLE, row)
        rec.call("setup", keyspace.checkpoint)
        for row in self.rows[self.sizes.rows:]:
            rec.call("setup", keyspace.insert, TABLE, row)
        self._pristine = [
            {f.name: f.read_bytes() for f in d.iterdir()} for d in self._replica_dirs
        ]
        self._marks = anchor.marks()

    def _restore(self) -> None:
        """Put every replica back to the state set-up left it in."""
        for directory, blobs in zip(self._replica_dirs, self._pristine):
            for f in directory.iterdir():
                if f.name not in blobs:
                    f.unlink()
            for name, data in blobs.items():
                (directory / name).write_bytes(data)

    def draw(self) -> tuple:
        ops = self._ops
        self._cycle += 1
        return (
            "cycle",
            ops.sample(self._keys, min(8, len(self._keys))),
            (ops.randrange(self.replicas), ops.random(), ops.random(), ops.randrange(8)),
            MASTER_KEY[:-6] + b"%06d" % self._cycle,
            [ops.choice(self._keys) for _ in range(64)],
        )

    def _point(self, rec: Recorder, keyspace: ShardedKeyspace, column: str,
               key: int) -> None:
        value = key if column == "id" else self.model[key][1]
        got = rec.call("point", keyspace.select_equals, TABLE, column, value)
        rec.check([values for *_, values in got] == [self.model[key]], (column, key))

    def execute(self, op: tuple, rec: Recorder) -> None:
        _, spot_keys, (replica, blob_pick, offset_pick, bit), new_key, phase_keys = op

        # Cold mount of the restored replicas, checked against the model.
        self._restore()
        chain = KeyChain.single(MASTER_KEY)
        anchor = MemoryAnchor()
        for scope, mark in self._marks.items():
            anchor.put(scope, mark)
        mirror = self._mirror()
        keyspace = rec.call("mount", ShardedKeyspace.open, mirror, chain, CONFIG,
                            None, self.workers, anchor)
        rec.check(not keyspace.degraded_shards, "mount degraded")
        got = rec.call("range", keyspace.select_range, TABLE, "id",
                       self._keys[0], self._keys[-1])
        rec.check(sorted(values for *_, values in got) == sorted(self.model.values()),
                  "mounted rows")
        for key in spot_keys:
            self._point(rec, keyspace, "id", key)

        # One bit flipped in one replica's blob; the scrub must repair it.
        victim = FileDisk(self._replica_dirs[replica])
        names = victim.names()
        name = names[int(blob_pick * len(names))]
        blob = bytearray(victim.read(name))
        blob[int(offset_pick * len(blob))] ^= 1 << bit
        victim.write(name, bytes(blob))
        report = rec.call("scrub", scrub.scrub_keyspace, mirror, chain)
        rec.check(report.ok and report.repairs == 1, ("scrub", name))
        rec.counts["scrub.mac_verifications"] += report.mac_verifications

        # Online rotation with a point query at every phase.
        phase_queries = iter(phase_keys)

        def on_phase(shard_id: str, phase: str) -> None:
            self._point(rec, keyspace, "id", next(phase_queries))

        rotation = rec.call("rotate", keyspace.rotate, new_key, None, on_phase)
        rec.check(rotation.to_epoch == 1 and len(rotation.outcomes) == self.shards,
                  "rotation")
        rec.counts["rotation.cells"] += rotation.cells_reencrypted
        for key in spot_keys[:4]:
            self._point(rec, keyspace, "payload", key)
        rec.counts["mirror.read_repairs"] += mirror.read_repairs

    def space_amp(self) -> float:
        stored = sum(len(data) for blobs in self._pristine for data in blobs.values())
        return stored / self.model_bytes()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ReadMix, WriteJournaled, RecoverSharded)
}

#: Sizes for the benchmark runs (README.md says how they were chosen).
SIZES = {
    "read_mix": Sizes(rows=400, trace_steps=800),
    "write_journaled": Sizes(rows=200, trace_steps=400),
    "recover_sharded": Sizes(rows=40, tail=8, trace_steps=4),
}

#: Sizes for the self-tests.
TINY = {
    "read_mix": Sizes(rows=40, trace_steps=20),
    "write_journaled": Sizes(rows=20, trace_steps=20),
    "recover_sharded": Sizes(rows=8, tail=2, trace_steps=1),
}

