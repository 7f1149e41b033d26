"""Layer spans for the traced benchmark pass, recorded from outside ``src/``.

A :class:`Tracer` times calls into each layer's public entry points and
keeps, per span name, the *self* time (span duration minus the time its
child spans cover), the inclusive time, the call count, and work
counters such as AES blocks or SHA-256 bytes.  Spans are kept in memory
and summarised when the pass ends.

:func:`instrument` installs the spans for the duration of a ``with``
block and removes them afterwards:

* a delegating cipher backend, registered under the name ``optimized``
  through :func:`repro.primitives.backends.register_backend`, that counts
  and times every AES block;
* wrappers on the public methods of the AEAD, MAC, cell codec, index
  codec, B+-tree, index table, query, WAL, durable-database, storage,
  mirror, scrub, rotation and sharding layers;
* :class:`TracedDisk`, a :class:`~repro.durability.vdisk.VirtualDisk`
  that the workloads put around every ``FileDisk`` they create.

Nothing in the program changes: every wrapper calls straight through,
and the stored bytes are identical with or without them.  The tracer
keeps one span stack, so the traced pass must run single-threaded.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterator

from repro.durability.vdisk import VirtualDisk

#: Span names a decoded index entry is charged to.
SEARCH_SPANS = ("btree.search", "indextable.search")


class Tracer:
    """One span stack plus per-span self time, calls and counters."""

    def __init__(self) -> None:
        self.enabled = False
        self._stack: list[list] = []  # [span name, child seconds]
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("tracer reset inside an open span")
        self.self_s.clear()
        self.total_s.clear()
        self.calls.clear()
        self.counts.clear()

    def _close(self, frame: list, elapsed: float) -> None:
        self._stack.pop()
        self.self_s[frame[0]] += elapsed - frame[1]
        self.total_s[frame[0]] += elapsed
        self.calls[frame[0]] += 1
        if self._stack:
            self._stack[-1][1] += elapsed

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` inside a span called ``name`` while the tracer is enabled."""
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            self._stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, clock() - start)

        return traced

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, time.perf_counter() - start)

    def count(self, key: str, amount: int = 1) -> None:
        if self.enabled:
            self.counts[key] += amount

    def innermost(self, names: tuple[str, ...]) -> str | None:
        """The innermost open span whose name is in ``names``."""
        for frame in reversed(self._stack):
            if frame[0] in names:
                return frame[0]
        return None

    def inside(self, prefix: str) -> bool:
        return any(frame[0].startswith(prefix) for frame in self._stack)


# ---------------------------------------------------------------------------
# Injection points
# ---------------------------------------------------------------------------


class TracedCipher:
    """A block cipher that counts and times every block it processes."""

    def __init__(self, inner: Any, tracer: Tracer) -> None:
        self.block_size = inner.block_size
        self.name = inner.name

        def single(fn: Callable) -> Callable:
            timed = tracer.wrap("primitives.aes", fn)

            def call(block):
                tracer.count("primitives.aes_blocks")
                return timed(block)

            return call

        def batch(fn: Callable) -> Callable:
            timed = tracer.wrap("primitives.aes", fn)

            def call(blocks):
                blocks = list(blocks)
                tracer.count("primitives.aes_blocks", len(blocks))
                return timed(blocks)

            return call

        self.encrypt_block = single(inner.encrypt_block)
        self.decrypt_block = single(inner.decrypt_block)
        self.encrypt_blocks = batch(inner.encrypt_blocks)
        self.decrypt_blocks = batch(inner.decrypt_blocks)


class TracedDisk(VirtualDisk):
    """Times and counts every operation on the wrapped disk."""

    def __init__(self, inner: VirtualDisk, tracer: Tracer) -> None:
        self._tracer = tracer
        wrap = tracer.wrap
        self._read = wrap("disk.read", inner.read)
        self._exists = wrap("disk.exists", inner.exists)
        self._names = wrap("disk.names", inner.names)
        self._append = wrap("disk.append", inner.append)
        self._write = wrap("disk.write", inner.write)
        self._rename = wrap("disk.rename", inner.rename)
        self._delete = wrap("disk.delete", inner.delete)
        self._sync = wrap("disk.sync", inner.sync)

    def read(self, name: str) -> bytes:
        if self._tracer.inside("mirror."):
            self._tracer.count("mirror.replica_reads")
        return self._read(name)

    def exists(self, name: str) -> bool:
        return self._exists(name)

    def names(self) -> list[str]:
        return self._names()

    def append(self, name: str, data: bytes) -> None:
        self._tracer.count("disk.bytes_written", len(data))
        self._tracer.count("disk.bytes_appended", len(data))
        self._append(name, data)

    def write(self, name: str, data: bytes) -> None:
        self._tracer.count("disk.bytes_written", len(data))
        self._write(name, data)

    def rename(self, src: str, dst: str) -> None:
        self._rename(src, dst)

    def delete(self, name: str) -> None:
        self._delete(name)

    def sync(self, name: str) -> None:
        self._tracer.count("disk.syncs")
        self._sync(name)


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[Callable[[], None]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        if isinstance(owner, type) and attr not in owner.__dict__:
            self._undo.append(lambda: delattr(owner, attr))
        else:
            original = (
                owner.__dict__[attr] if isinstance(owner, type)
                else getattr(owner, attr)
            )
            self._undo.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, value)

    def undo_all(self) -> None:
        while self._undo:
            self._undo.pop()()


def _method_spans(tracer: Tracer, patches: _Patches) -> None:
    """Spans on the public methods of every layer above the cipher."""
    from repro.aead.eax import EAX
    from repro.core.cellcrypto.aead_scheme import AeadCellScheme
    from repro.core.encrypted_db import EncryptedDatabase
    from repro.core.indexcrypto.aead_index import AeadIndexCodec
    from repro.durability import manager
    from repro.durability.manager import DurableDatabase
    from repro.durability.wal import Journal
    from repro.engine.btree import BPlusTree
    from repro.engine.database import Database
    from repro.engine.indextable import IndexTable
    from repro.mac.base import MAC
    from repro.mac.hmac_mac import HMACMAC
    from repro.primitives.sha256 import SHA256
    from repro.resilience import scrub
    from repro.resilience.replica import MirroredDisk
    from repro.sharding.keyspace import ShardedKeyspace

    count = tracer.count

    def method(owner: Any, attr: str, name: str, before=None, after=None) -> None:
        timed = tracer.wrap(name, getattr(owner, attr))

        def call(*args, **kwargs):
            if before is not None and tracer.enabled:
                before(*args, **kwargs)
            result = timed(*args, **kwargs)
            if after is not None and tracer.enabled:
                after(result)
            return result

        patches.set(owner, attr, timed if before is after is None else call)

    def batch_counter(calls_key: str, items_key: str, batch: bool) -> Callable:
        def before(self, first, *rest) -> None:
            count(calls_key)
            count(items_key, len(first) if batch else 1)

        return before

    # primitives: SHA-256 is charged per 64-octet compression.
    method(SHA256, "_compress", "primitives.sha256",
           before=lambda self, block: count("primitives.sha256_bytes", len(block)))

    # aead: a batch call carries many messages.
    for attr, batch in (("encrypt", False), ("decrypt", False),
                        ("encrypt_batch", True), ("decrypt_batch", True)):
        method(EAX, attr, "aead." + attr.replace("_batch", ""),
               before=batch_counter("aead.calls", "aead.msgs", batch))

    # mac: HMAC-SHA256 commit markers; verify() recomputes a tag inside.
    def tagged(self, message) -> None:
        if not tracer.inside("mac.verify"):
            count("mac.tags")

    method(HMACMAC, "tag", "mac.tag", before=tagged)
    method(MAC, "verify", "mac.verify",
           before=lambda self, message, tag: count("mac.verifies"))

    # cellcodec
    method(AeadCellScheme, "encode_cell", "cellcodec.encode")
    method(AeadCellScheme, "encode_cells", "cellcodec.encode")
    for attr, batch in (("decode_cell", False), ("decode_cells", True)):
        method(AeadCellScheme, attr, "cellcodec.decode",
               before=batch_counter("cellcodec.decode_calls",
                                    "cellcodec.decoded_cells", batch))

    # indexcodec: each decoded entry is charged to the enclosing search.
    def entry_decoded(self, payload, refs) -> None:
        search = tracer.innermost(SEARCH_SPANS)
        if search is not None:
            count(search + ".entries_decoded")

    method(AeadIndexCodec, "encode", "indexcodec.encode")
    method(AeadIndexCodec, "decode", "indexcodec.decode", before=entry_decoded)

    # structures: search() is range_search(key, key), so one span covers both.
    for owner, layer in ((BPlusTree, "btree"), (IndexTable, "indextable")):
        method(owner, "range_search", layer + ".search",
               before=lambda self, low, high, _key=layer + ".searches": count(_key))
        method(owner, "insert", layer + ".insert")
        method(owner, "delete", layer + ".delete")
        method(owner, "bulk_build", layer + ".bulk_build")

    # query: rows examined (get_row inside a select) per row returned.
    def row_examined(self, *args) -> None:
        if tracer.inside("query.select"):
            count("query.rows_examined")

    def rows_returned(result) -> None:
        count("query.rows_returned", len(result))

    method(Database, "select_equals", "query.select", after=rows_returned)
    method(Database, "select_range", "query.select", after=rows_returned)
    method(Database, "get_row", "query.get_row", before=row_examined)

    # storage: the durable manager imported these names, so patch them there.
    method(manager, "dump_database", "storage.dump",
           after=lambda image: count("storage.image_bytes", len(image)))
    method(manager, "load_database", "storage.load")

    # wal
    method(Journal, "append", "wal.append")
    method(Journal, "scan", "wal.replay")
    method(Journal, "reset", "wal.reset")

    # durable manager: record framing and bookkeeping around the layers.
    open_timed = tracer.wrap("durable.open", DurableDatabase.open.__func__)

    def durable_open(cls, *args, **kwargs):
        opened = open_timed(cls, *args, **kwargs)
        count("wal.replay_records", opened.recovery.records_replayed)
        return opened

    patches.set(DurableDatabase, "open", classmethod(durable_open))
    for attr in ("insert", "update_value", "delete_row"):
        method(DurableDatabase, attr, "durable.commit",
               before=lambda self, *args: count("durable.commits"))
    method(DurableDatabase, "checkpoint", "durable.checkpoint")

    # codec set-up: key derivation plus AEAD precomputation.
    method(EncryptedDatabase, "__init__", "keys.setup")

    # replication, scrubbing and the sharded keyspace
    for attr in ("read", "write", "append", "sync", "rename", "delete",
                 "exists", "names"):
        method(MirroredDisk, attr, "mirror." + attr)
    method(scrub, "scrub_keyspace", "scrub.pass")
    patches.set(ShardedKeyspace, "open", classmethod(
        tracer.wrap("sharding.mount", ShardedKeyspace.open.__func__)))
    method(ShardedKeyspace, "select_equals", "sharding.query")
    method(ShardedKeyspace, "select_range", "sharding.query")
    method(ShardedKeyspace, "rotate", "rotation.rotate")


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Install every span for the duration of the block.

    Wrappers stay pass-through until the caller sets ``tracer.enabled``,
    so set-up inside the block is not traced.
    """
    from repro.primitives.backends import (
        CipherBackend,
        get_backend,
        register_backend,
    )

    inner_backend = get_backend("optimized")

    class TracedBackend(CipherBackend):
        name = "optimized"

        def create(self, algorithm: str, key: bytes):
            return TracedCipher(inner_backend.create(algorithm, key), tracer)

    patches = _Patches()
    register_backend(TracedBackend(), replace=True)
    try:
        _method_spans(tracer, patches)
        yield tracer
    finally:
        tracer.enabled = False
        patches.undo_all()
        register_backend(inner_backend, replace=True)
