"""Command-line driver: ``python -m repro <command>``.

``python -m repro --help`` lists the commands, and
``python -m repro <command> --help`` documents each command's flags.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from collections.abc import Iterable
from pathlib import Path

from repro.analysis.collision import run_collision_experiment
from repro.analysis.overhead import (
    PAPER_STORAGE_OCTETS,
    measure_blockcipher_invocations,
    measure_storage_overhead,
    paper_invocation_formula,
)
from repro.analysis.report import format_table


class UsageError(Exception):
    """Bad command-line input; the CLI prints usage and exits 2."""


class _Parser(argparse.ArgumentParser):
    """The CLI's parsers: flags are never abbreviated, and every parse
    error is a :class:`UsageError` worded ``--flag <problem>``."""

    def __init__(self, **kwargs) -> None:
        super().__init__(allow_abbrev=False, exit_on_error=False, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        try:
            return super().parse_known_args(args, namespace)
        except argparse.ArgumentError as exc:
            if exc.message == "expected one argument":
                raise UsageError(f"{exc.argument_name} requires a value") from None
            raise UsageError(f"{exc.argument_name} {exc.message}") from None

    def error(self, message: str):
        raise UsageError(message)


# Argument types.  A problem with a flag's value raises ArgumentTypeError,
# which the parser prefixes with the flag's name; a message that names its
# own subject is raised as a UsageError as it stands.


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None


def _at_least(minimum: int):
    """Type of an integer flag with a lower bound."""

    def parse(text: str) -> int:
        value = _integer(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}")
        return value

    return parse


def _threshold(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _hex_key(text: str) -> bytes:
    try:
        key = bytes.fromhex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a hex string, got {text!r}"
        ) from None
    if len(key) < 16:
        raise argparse.ArgumentTypeError("must be at least 16 bytes (32 hex digits)")
    return key


def _seed_key(text: str) -> bytes:
    return hashlib.sha256(text.encode("utf-8")).digest()


def _names(text: str) -> list[str]:
    """Type of a comma-separated list flag: its non-empty names."""
    return [name for name in text.split(",") if name]


def _slug(text: str) -> str:
    """Type of ``--config``: one of the six configuration slugs."""
    from repro.observability.leakmon import CONFIG_SLUGS

    if text not in CONFIG_SLUGS:
        raise UsageError(
            f"unknown configuration slug {text!r}; "
            f"available: {', '.join(CONFIG_SLUGS)}"
        )
    return text


def _slugs(text: str) -> list[str]:
    """Type of ``--configs``: one or more comma-separated slugs."""
    from repro.observability.leakmon import CONFIG_SLUGS

    slugs = [_slug(slug) for slug in _names(text)]
    if not slugs:
        raise UsageError(
            f"no configurations selected; available: {', '.join(CONFIG_SLUGS)}"
        )
    return slugs


def _injection(text: str) -> str:
    from repro.observability.monitor import INJECTIONS

    if text not in INJECTIONS:
        raise UsageError(
            f"unknown injection {text!r}; available: {', '.join(INJECTIONS)}"
        )
    return text


def _output(text: str) -> str:
    """Type of every output-file flag.  It creates the file's directory
    up front, so that a long run cannot fail at its final write."""
    try:
        Path(text).parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot be written: {exc}") from None
    return text


def _fail(lines: Iterable[str], gap: bool = True) -> int:
    """Print each finding to stderr and return 1, the findings exit code;
    ``gap`` first separates them from the stdout report by a blank line."""
    if gap:
        print()
    for line in lines:
        print(line, file=sys.stderr)
    return 1


def _campaign_configs(slugs: list[str] | None) -> list:
    """``(label, config)`` for each slug; with no slugs, all six
    configurations, which is every campaign's own default."""
    from repro.observability.leakmon import CONFIG_SLUGS
    from repro.robustness.campaign import default_campaign_configs

    by_label = dict(default_campaign_configs())
    return [
        (CONFIG_SLUGS[slug], by_label[CONFIG_SLUGS[slug]])
        for slug in slugs or CONFIG_SLUGS
    ]


def _demo_people(keyspace) -> None:
    """Fill a fresh keyspace with the six-row demo ``people`` table."""
    from repro.engine.schema import Column, ColumnType, TableSchema

    keyspace.create_table(TableSchema("people", [
        Column("id", ColumnType.INT),
        Column("name", ColumnType.TEXT),
        Column("city", ColumnType.TEXT, sensitive=False),
    ]))
    for i in range(6):
        keyspace.insert("people", [i, f"name-{i:03d}", f"city-{i % 3}"])


def _demo(args: argparse.Namespace) -> int:
    from repro import EncryptedDatabase, EncryptionConfig
    from repro.engine import Column, ColumnType, PointQuery, TableSchema

    db = EncryptedDatabase(
        b"demo-master-key-0123456789abcdef", EncryptionConfig.paper_fixed("eax")
    )
    db.create_table(TableSchema("notes", [Column("text", ColumnType.TEXT)]))
    row = db.insert("notes", ["the fix works"])
    db.create_index("notes_text", "notes", "text")
    result = PointQuery("notes", "text", "the fix works").execute(db)
    stored = db.storage_view().cell("notes", row, 0)
    print("inserted, indexed, queried:", result.row_ids())
    print("stored bytes:", stored.hex()[:64], "...")
    print("plaintext visible in storage:", b"the fix works" in stored)
    return 0


def _attacks(args: argparse.Namespace) -> int:
    from repro.attacks import (
        evaluate_append_forgery,
        evaluate_index_linkage,
        evaluate_mac_interaction,
        evaluate_pattern_matching,
        true_index_links,
    )
    from repro.core.encrypted_db import EncryptionConfig
    from repro.workloads.datasets import build_documents_db

    rows, groups = 16, 4
    pairs = {
        (i, j) for i in range(rows) for j in range(i + 1, rows)
        if i % groups == j % groups
    }
    table = []
    for label, config in [
        ("broken ([3]+[12], zero-IV)", EncryptionConfig(
            cell_scheme="append", index_scheme="dbsec2005")),
        ("fixed (AEAD/EAX)", EncryptionConfig.paper_fixed("eax")),
    ]:
        db = build_documents_db(config, rows=rows, groups=groups)
        storage = db.storage_view()
        index = db.index("documents_by_body").structure
        outcomes = [
            evaluate_pattern_matching(storage, "documents", 1, pairs, label),
            evaluate_append_forgery(db, storage, "documents", 1, "body", 64, label),
            evaluate_index_linkage(
                storage, "documents_by_body", "documents", 1,
                true_index_links(index), label,
            ),
        ]
        if config.index_scheme == "dbsec2005":
            outcomes.append(evaluate_mac_interaction(index, 64, label))
        for outcome in outcomes:
            table.append([label, outcome.attack, outcome.succeeded])
    print(format_table(["configuration", "attack", "succeeded"], table))
    return 0


def _overhead(args: argparse.Namespace) -> int:
    storage_rows = []
    for scheme in ("eax", "ocb", "ccfb", "gcm"):
        overhead = measure_storage_overhead(scheme, b"P" * 48)
        storage_rows.append([
            scheme, overhead.total_octets,
            PAPER_STORAGE_OCTETS.get(scheme, "-"),
        ])
    print(format_table(
        ["scheme", "measured octets/entry", "paper"], storage_rows,
        caption="storage overhead (Sect. 4)",
    ))
    print()
    invocation_rows = []
    for n in (1, 4, 16):
        eax = measure_blockcipher_invocations("eax", n, 1)
        ocb = measure_blockcipher_invocations("ocb", n, 1)
        invocation_rows.append([
            n, eax.total_calls, paper_invocation_formula("eax", n, 1),
            ocb.total_calls, paper_invocation_formula("ocb", n, 1),
        ])
    print(format_table(
        ["n", "EAX", "2n+m+1", "OCB", "n+m+5"], invocation_rows,
        caption="blockcipher invocations, m=1 (Sect. 4)",
    ))
    return 0


def _collisions(args: argparse.Namespace) -> int:
    print(run_collision_experiment(args.trials))
    if args.trials == 1024:
        print("paper's run on its own address set found 6")
    return 0


def _faultcampaign(args: argparse.Namespace) -> int:
    from repro.robustness import run_campaign

    result = run_campaign(seeds=args.seeds)
    print(result.format_matrix())
    recovered = sum(r.rows_recovered for r in result.records)
    quarantined = sum(r.rows_quarantined for r in result.records)
    print()
    print(
        f"resilient loader: {len(result.records)} faulted images, "
        f"{len(result.resilient_failures)} crashes, "
        f"{recovered} rows recovered, {quarantined} rows quarantined"
    )
    violations = result.check_paper_expectations()
    if violations:
        return _fail(f"VIOLATION: {violation}" for violation in violations)
    print("matrix consistent with the paper's claims "
          "(broken schemes corrupt silently, AEAD never does)")
    return 0


def _crashcampaign(args: argparse.Namespace) -> int:
    from repro.durability import run_crash_campaign
    from repro.durability.crashcampaign import CAMPAIGN_PHASES, CRASH_MODES

    for names, known, what in [
        (args.phases, CAMPAIGN_PHASES, "campaign phase"),
        (args.modes, CRASH_MODES, "crash mode"),
    ]:
        if names is not None and (not names or not set(names) <= set(known)):
            raise UsageError(
                f"unknown or empty {what}(s); available: {', '.join(known)}"
            )

    result = run_crash_campaign(
        rows=args.rows,
        limit=args.limit,
        configs=_campaign_configs(args.configs),
        modes=tuple(args.modes or CRASH_MODES),
        phases=tuple(args.phases or CAMPAIGN_PHASES),
    )
    print(result.format_matrix())
    if not result.ok:
        return _fail(f"VIOLATION: {violation}" for violation in result.violations)
    messages = []
    if result.per_config:
        messages.append(
            "every crash recovered to exactly the pre- or post-operation "
            "state; audit hooks and retried transient failures are "
            "byte-neutral"
        )
    if result.rotation is not None:
        messages.append(
            "every mid-rotation crash recovered each shard to exactly the "
            "old or the new key epoch with the manifest verifying"
        )
    print("; ".join(messages))
    return 0


def _chaoscampaign(args: argparse.Namespace) -> int:
    from repro.resilience.chaos import run_chaos_campaign

    result = run_chaos_campaign(
        steps=args.steps,
        seed=args.seed,
        shard_count=args.shards,
        replicas=args.replicas,
        flaky=args.flaky,
        configs=_campaign_configs(args.configs),
    )
    print(result.format_matrix())
    if not result.ok:
        return _fail(f"VIOLATION: {violation}" for violation in result.violations)
    rollbacks = sum(r.rollbacks_injected for r in result.per_config)
    corruptions = sum(r.corruptions for r in result.per_config)
    print(
        f"no acknowledged commit lost, all {rollbacks} rollback(s) "
        f"detected, all {corruptions} single-replica corruption(s) "
        f"repaired, replicas converged"
    )
    return 0


def _scrub(args: argparse.Namespace) -> int:
    from repro.core.keys import KeyChain
    from repro.durability.vdisk import FileDisk
    from repro.errors import DiskError
    from repro.resilience import MirroredDisk, scrub_keyspace
    from repro.sharding import ShardedKeyspace

    if len(args.replicas) < 2:
        raise UsageError("scrub requires at least two --replica PATH flags")

    chain = KeyChain(args.old_masters or [_seed_key("repro-demo-master")])
    disks = [FileDisk(path) for path in args.replicas]
    mirror = MirroredDisk(disks)
    if args.demo and not mirror.names():
        config = _campaign_configs([args.config])[0][1]
        keyspace = ShardedKeyspace.open(
            mirror, chain, config, shard_count=args.shards
        )
        _demo_people(keyspace)
        keyspace.checkpoint()
        print(
            f"created a fresh {args.shards}-shard demo keyspace across "
            f"{len(args.replicas)} replicas"
        )
    inject = args.inject_fault
    if inject is not None:
        # Corrupt the named blob on *every* replica: an unrepairable
        # fault the scrub must report (and exit non-zero on) — the CI
        # smoke test's negative control.
        flipped = 0
        for disk in disks:
            try:
                data = bytearray(disk.read(inject))
            except DiskError:
                continue
            data[0] ^= 0xFF
            disk.write(inject, bytes(data))
            disk.sync(inject)
            flipped += 1
        if flipped == 0:
            raise UsageError(f"--inject-fault: no replica holds {inject!r}")
        print(f"injected fault into {inject!r} on {flipped} replica(s)")

    report = scrub_keyspace(mirror, chain, repair=args.repair)
    print(report.format())
    if report.unrepaired:
        return _fail(
            f"UNREPAIRABLE: {name} has no authentic copy on any replica"
            for name in report.unrepaired
        )
    return 0


def _rotate(args: argparse.Namespace) -> int:
    from repro.core.keys import KeyChain
    from repro.durability.vdisk import FileDisk
    from repro.errors import ReproError
    from repro.sharding import ShardedKeyspace

    if len(args.new_masters) > 1:
        raise UsageError("rotate takes exactly one new key")
    new_master = args.new_masters[0] if args.new_masters else None
    directory = args.dir
    if directory is None:
        raise UsageError("rotate requires --dir PATH")
    if new_master is None and len(args.old_masters) < 2:
        # Without a new key the only meaningful run is a *resume*: the
        # supplied chain already holds the target epoch and lagging
        # shards are brought up to its head.
        raise UsageError("rotate requires --new-key HEX or --new-seed TEXT")
    old_masters = args.old_masters or [_seed_key("repro-demo-master")]
    if new_master is not None and new_master in old_masters:
        raise UsageError("the new key must differ from every old chain key")

    config = _campaign_configs([args.config])[0][1]
    chain = KeyChain(old_masters)
    keyspace = ShardedKeyspace.open(
        FileDisk(directory), chain, config, shard_count=args.shards
    )
    for issue in keyspace.recovery.issues:
        print(f"note: {issue}", file=sys.stderr)
    if keyspace.recovery.fresh:
        _demo_people(keyspace)
        keyspace.create_index("people_by_id", "people", "id", kind="btree")
        keyspace.checkpoint()
        print(f"created a fresh {args.shards}-shard keyspace in {directory} "
              f"(6 demo rows)")
    shard_id = args.shard
    if shard_id is not None and all(
        shard.shard_id != shard_id for shard in keyspace.shards
    ):
        raise UsageError(
            f"no shard {shard_id!r}; keyspace holds "
            f"{', '.join(shard.shard_id for shard in keyspace.shards)}"
        )
    # Read every row through --config first: a keyspace made under another
    # configuration fails here, before the rotation has written anything.
    for shard in keyspace.shards:
        if shard.degraded:
            continue
        db = shard.manager.database
        try:
            for name in db.table_names:
                for _ in db.scan(name):
                    pass
        except (ReproError, UnicodeDecodeError) as exc:
            raise UsageError(
                f"{shard.shard_id} does not read under --config {args.config} "
                f"({type(exc).__name__}: {exc}); give the configuration the "
                f"keyspace was made with"
            ) from None
    before_counts = {
        name: keyspace.count(name)
        for name in keyspace.shards[0].manager.database.table_names
    }

    report = keyspace.rotate(new_master, shard_id=shard_id)
    print(format_table(
        ["shard", "from epoch", "to epoch", "cells", "index entries"],
        [
            [o.shard_id, o.from_epoch, o.to_epoch,
             o.cells_reencrypted, o.index_entries_reencrypted]
            for o in report.outcomes
        ],
        caption=f"rotation to key epoch {report.to_epoch}",
    ))
    for skipped in report.skipped:
        print(f"skipped {skipped} (already at epoch {report.to_epoch} "
              f"or degraded)")

    # Post-rotation verification: remount from disk under the extended
    # chain and require every rotated shard at the target epoch, clean.
    check = ShardedKeyspace.open(FileDisk(directory), chain, config)
    failures = []
    if check.recovery.manifest != "ok":
        failures.append(f"manifest does not verify: {check.recovery.manifest}")
    rotated = {outcome.shard_id for outcome in report.outcomes}
    for shard in check.shards:
        if shard.shard_id in rotated and shard.epoch != report.to_epoch:
            failures.append(
                f"{shard.shard_id} remounted at epoch {shard.epoch}, "
                f"expected {report.to_epoch}"
            )
        if shard.shard_id in rotated and shard.degraded:
            failures.append(f"{shard.shard_id} remounted degraded")
    for name, expected in before_counts.items():
        found = check.count(name)
        if found != expected:
            failures.append(
                f"table {name!r} holds {found} rows after rotation, "
                f"had {expected}"
            )
    if failures:
        return _fail(f"VERIFICATION FAILED: {failure}" for failure in failures)
    print(f"verified: {len(rotated)} shard(s) at epoch {report.to_epoch}, "
          f"manifest ok, row counts preserved")
    return 0


def _bench(args: argparse.Namespace) -> int:
    from repro.bench import (
        DEFAULT_WALL_THRESHOLD,
        compare_reports,
        divergences,
        load_report,
        next_bench_path,
        run_bench,
        summarize,
        summarize_comparison,
        write_report,
    )

    baseline = None
    if args.baseline is not None:
        try:
            baseline = load_report(args.baseline)
        except ValueError as exc:
            raise UsageError(str(exc)) from None

    try:
        report = run_bench(args.scenarios, quick=args.quick)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    out = args.out if args.out is not None else next_bench_path()
    try:
        path = write_report(report, out, overwrite=args.force)
    except FileExistsError as exc:
        raise UsageError(str(exc)) from None
    print(summarize(report))
    print(f"report written to {path}")
    status = 0
    if not report["ok"]:
        status = _fail(f"DIVERGENCE: {failure}" for failure in divergences(report))
    if baseline is not None:
        threshold = DEFAULT_WALL_THRESHOLD if args.threshold is None else args.threshold
        delta = compare_reports(baseline, report, wall_threshold=threshold)
        print()
        print(summarize_comparison(delta))
        if args.delta_out is not None:
            Path(args.delta_out).write_text(
                json.dumps(delta, indent=2, sort_keys=True) + "\n"
            )
            print(f"delta report written to {args.delta_out}")
        if not delta["ok"]:
            status = _fail(
                f"REGRESSION: {regression}" for regression in delta["regressions"]
            )
    return status


def _backendparity(args: argparse.Namespace) -> int:
    """Cross-backend equivalence sweep: every registered cipher backend
    must produce byte-identical output at three layers — raw blocks,
    whole database images, and ``insert_many`` against the per-row
    insert loop."""
    from repro.engine.storage import dump_database
    from repro.primitives.backends import available_backends, get_backend
    from repro.robustness.campaign import build_campaign_db, default_campaign_configs

    backends = available_backends()
    reference = backends[0]
    failures: list[str] = []
    document: dict = {"backends": list(backends), "reference": reference}

    # Layer 1: raw block equivalence per algorithm, both directions,
    # single-block and batch paths, deterministic pseudorandom inputs.
    def material(tag: str, length: int) -> bytes:
        stream = b""
        counter = 0
        while len(stream) < length:
            stream += hashlib.sha256(b"parity/%s/%d" % (tag.encode(), counter)).digest()
            counter += 1
        return stream[:length]

    algorithms = [
        ("aes-128", 16),
        ("aes-192", 24),
        ("aes-256", 32),
        ("des", 8),
        ("3des", 24),
    ]
    primitive_rows: list[dict] = []
    for algorithm, key_size in algorithms:
        key = material("key/" + algorithm, key_size)
        ciphers = {name: get_backend(name).create(algorithm, key) for name in backends}
        block_size = ciphers[reference].block_size
        blocks = [
            material(f"block/{algorithm}/{i}", block_size) for i in range(32)
        ]
        expected = [ciphers[reference].encrypt_block(block) for block in blocks]
        row = {"algorithm": algorithm, "ok": True}
        for name, cipher in ciphers.items():
            sequential = [cipher.encrypt_block(block) for block in blocks]
            batched = cipher.encrypt_blocks(blocks)
            recovered = cipher.decrypt_blocks(batched)
            if sequential != expected or batched != expected or recovered != blocks:
                row["ok"] = False
                failures.append(f"primitive divergence: {algorithm} under {name!r}")
        primitive_rows.append(row)
    document["primitives"] = primitive_rows

    # Layer 2 + 3: whole-image SHA-256 per campaign config per backend,
    # plus insert_many against the per-row insert loop.
    rows = 8
    image_rows: list[dict] = []
    for label, config in default_campaign_configs():
        hashes: dict[str, str] = {}
        for name in backends:
            db = build_campaign_db(config.with_(backend=name), rows)
            hashes[name] = hashlib.sha256(dump_database(db)).hexdigest()
        batch_db = build_campaign_db(
            config.with_(backend=reference), rows, batched=True
        )
        batch_hash = hashlib.sha256(dump_database(batch_db)).hexdigest()
        ok = len(set(hashes.values())) == 1 and batch_hash == hashes[reference]
        if not ok:
            failures.append(f"image divergence: {label!r}: {hashes} batch={batch_hash}")
        image_rows.append(
            {"config": label, "ok": ok, "hashes": hashes, "batched": batch_hash}
        )
    document["images"] = image_rows
    document["ok"] = not failures

    print(
        format_table(
            ["config", "parity"]
            + [f"sha256 ({name})" for name in backends]
            + ["sha256 (batched)"],
            [
                [row["config"], "ok" if row["ok"] else "DIVERGED"]
                + [row["hashes"][name][:16] for name in backends]
                + [row["batched"][:16]]
                for row in image_rows
            ],
            caption=f"cross-backend image parity ({rows} rows per config)",
        )
    )
    print(
        f"primitive sweep: "
        f"{sum(1 for r in primitive_rows if r['ok'])}/{len(primitive_rows)} "
        f"algorithms byte-identical across {len(backends)} backends"
    )
    if args.out is not None:
        Path(args.out).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(f"parity report written to {args.out}")
    if failures:
        return _fail((f"DIVERGENCE: {failure}" for failure in failures), gap=False)
    return 0


def _audit_replay(
    log_path: str, metrics_jsonl: str | None, metrics_prom: str | None
) -> int:
    from repro.observability import AuditError, LeakMonitor, read_events, write_snapshot
    from repro.observability.leakmon import PROBES

    try:
        events = read_events(log_path)
    except AuditError as exc:
        raise UsageError(str(exc)) from None
    monitor = LeakMonitor()
    monitor.feed_all(events)
    verdicts = monitor.verdicts()
    print(f"replayed {len(events)} events from {log_path}")
    print(
        format_table(
            ["probe", "leaked"],
            [[probe, verdicts[probe]] for probe in PROBES],
            caption="streaming leakage verdicts",
        )
    )
    counters = monitor.registry.snapshot()["counters"]
    for name in sorted(counters):
        if name.startswith("leak.") and name != "leak.events":
            print(f"  {name} = {counters[name]}")
    written = write_snapshot(
        monitor.registry.snapshot(),
        jsonl_path=metrics_jsonl,
        prometheus_path=metrics_prom,
    )
    for path in written:
        print(f"metrics written to {path}")
    return 0


def _audit_live(slugs: list[str] | None, log_dir: str | None) -> int:
    from repro.observability import LeakMonitor, write_snapshot
    from repro.observability.leakmon import CONFIG_SLUGS, PROBES, run_live_profile

    slugs = slugs or list(CONFIG_SLUGS)
    directory = None
    if log_dir is not None:
        directory = Path(log_dir)
        directory.mkdir(parents=True, exist_ok=True)

    rows = []
    mismatches = []
    for slug, (label, config) in zip(slugs, _campaign_configs(slugs)):
        sink = directory / f"audit-{slug}.jsonl" if directory else None
        monitor, events, offline = run_live_profile(config, label, sink_path=sink)
        streaming = monitor.verdicts()
        replayed = LeakMonitor()
        replayed.feed_all(events)
        replay_verdicts = replayed.verdicts()
        agree = streaming == offline == replay_verdicts
        rows.append(
            [label, len(events)]
            + [streaming[probe] for probe in PROBES]
            + [agree]
        )
        if not agree:
            for probe in PROBES:
                if not (
                    streaming[probe] == offline[probe] == replay_verdicts[probe]
                ):
                    mismatches.append(
                        f"{label}/{probe}: offline={offline[probe]} "
                        f"streaming={streaming[probe]} replay={replay_verdicts[probe]}"
                    )
        if directory is not None:
            write_snapshot(
                monitor.registry.snapshot(),
                jsonl_path=directory / f"metrics-{slug}.jsonl",
                prometheus_path=directory / f"metrics-{slug}.prom",
            )
    print(
        format_table(
            ["configuration", "events", *PROBES, "matches offline"],
            rows,
            caption="streaming leakage monitor vs offline analysis.leakage",
        )
    )
    if directory is not None:
        print(f"event logs and metric snapshots written to {directory}/")
    if mismatches:
        return _fail(f"MISMATCH: {mismatch}" for mismatch in mismatches)
    print("streaming verdicts agree with the offline matrix "
          "(live and replayed) for every configuration")
    return 0


def _audit(args: argparse.Namespace) -> int:
    if len(args.log) > 1:
        raise UsageError("audit takes at most one log path")
    if args.live:
        if args.log:
            raise UsageError("--live runs a workload; it does not take a log path")
        return _audit_live(args.configs, args.log_dir)
    if not args.log:
        raise UsageError("audit requires a log path (or --live)")
    if args.configs is not None or args.log_dir is not None:
        raise UsageError("--configs/--log-dir only apply to audit --live")
    return _audit_replay(args.log[0], args.metrics_jsonl, args.metrics_prom)


def _trace(args: argparse.Namespace) -> int:
    from repro.bench.explain import (
        EXPLAIN_SCENARIOS,
        explain_metadata,
        trace_scenario,
    )
    from repro.observability.traceexport import write_chrome_trace

    scenario = args.scenario
    if args.out is None:
        raise UsageError("trace requires --out PATH")
    if scenario not in EXPLAIN_SCENARIOS:
        raise UsageError(
            f"unknown trace scenario {scenario!r}; "
            f"available: {', '.join(EXPLAIN_SCENARIOS)}"
        )
    configs = _campaign_configs(args.configs)

    spans = []
    for label, config in configs:
        result = trace_scenario(scenario, label, config)
        if result.skipped is not None:
            print(f"skipped {label}: {result.skipped}")
            continue
        spans.extend(result.spans)
    metadata = explain_metadata(scenario, [label for label, _ in configs])
    path = write_chrome_trace(args.out, spans, metadata)
    print(
        f"{len(spans)} spans from scenario {scenario!r} written to {path} "
        "(open in Perfetto or chrome://tracing)"
    )
    return 0


def _explain(args: argparse.Namespace) -> int:
    from repro.bench.explain import (
        EXPLAIN_SCENARIOS,
        render_explain_report,
        trace_scenario,
    )

    if len(args.scenario) > 1:
        raise UsageError("explain takes exactly one scenario")
    if not args.scenario:
        raise UsageError(
            f"explain requires a scenario; available: {', '.join(EXPLAIN_SCENARIOS)}"
        )
    scenario = args.scenario[0]
    if scenario not in EXPLAIN_SCENARIOS:
        raise UsageError(
            f"unknown explain scenario {scenario!r}; "
            f"available: {', '.join(EXPLAIN_SCENARIOS)}"
        )
    results = [
        trace_scenario(scenario, label, config)
        for label, config in _campaign_configs(args.configs)
    ]
    print(render_explain_report(results), end="")
    mismatches = []
    for result in results:
        for profile in result.profiles:
            check = profile.formula_check()
            if check["applicable"] and not check["ok"]:
                mismatches.append(
                    f"{result.config}/{profile.name} (trace {profile.trace_id}): "
                    f"measured {check['measured_cipher_calls']} != "
                    f"predicted {check['predicted_cipher_calls']}"
                )
    if mismatches:
        return _fail(f"DIVERGENCE: {mismatch}" for mismatch in mismatches)
    return 0


def _monitor(args: argparse.Namespace) -> int:
    from repro.bench import load_report
    from repro.observability.export import (
        render_prometheus_samples,
        render_series_jsonl,
        series_dropped_samples,
    )
    from repro.observability.health import load_rules
    from repro.observability.monitor import (
        monitor_scenarios,
        run_monitor,
        validate_health_report,
        write_health,
    )

    scenario = args.scenario
    if scenario not in monitor_scenarios():
        raise UsageError(
            f"unknown scenario {scenario!r}; "
            f"available: {', '.join(monitor_scenarios())}"
        )
    configs = _campaign_configs(args.configs or ["aead-eax"])

    baseline = None
    if args.baseline is not None:
        try:
            baseline = load_report(args.baseline)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    extra_rules = None
    if args.rules is not None:
        try:
            specs = json.loads(Path(args.rules).read_text())
            if not isinstance(specs, list):
                raise ValueError("a rules file holds a JSON array of rule objects")
            extra_rules = load_rules(specs)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot load rules from {args.rules}: {exc}") from None

    def dashboard(tick, hub):
        # Pull-sampled series land on this tick; pushed gauges landed
        # between the previous tick and this one — show both.
        fresh = [
            (series.name, series.labels, sample[1])
            for series in hub.all_series(include_volatile=True)
            for sample in [series.last()]
            if sample is not None and sample[0] + 1 >= tick
        ]
        print(f"tick {tick:>5}  ({len(fresh)} series updated)")
        for name, labels, value in fresh:
            rendered = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            print(f"    {name}{{{rendered}}} = {value:g}")

    doc = run_monitor(
        scenario=scenario,
        config_items=configs,
        quick=args.quick,
        baseline=baseline,
        extra_rules=extra_rules,
        inject=args.inject,
        limit=args.limit,
        follow=dashboard if args.follow else None,
    )
    problems = validate_health_report(doc)
    if problems:
        return _fail((f"INVALID: {problem}" for problem in problems), gap=False)

    if args.out is not None:
        path = write_health(doc, args.out)
        print(f"health report written to {path}")
    if args.prom is not None:
        samples = [
            (entry["name"], entry["labels"], entry["samples"][-1][1])
            for entry in doc["series"]
            if entry["samples"]
        ]
        text = render_prometheus_samples(samples)
        # Ring-drop counters ride along so a scrape can alert on any
        # evicted sample, mirroring the bench harness's hard failure.
        text += render_prometheus_samples(
            series_dropped_samples(doc["series"]), type_hint="counter"
        )
        Path(args.prom).write_text(text)
        print(f"prometheus samples written to {args.prom}")
    if args.jsonl is not None:
        Path(args.jsonl).write_text(render_series_jsonl(doc["series"]))
        print(f"series JSONL written to {args.jsonl}")

    for entry in doc["configs"]:
        if entry.get("skipped"):
            print(f"skipped {entry['config']}: {entry['skipped']}")
            continue
        print(
            f"{entry['config']}: ops={entry['ops']} "
            f"sect4_drift={entry['sect4_drift']} "
            f"leak_events={entry['leak_events']}"
        )
    print(
        f"monitored {scenario}: {doc['ticks']} tick(s), "
        f"{len(doc['series'])} series, {len(doc['rules'])} rule(s)"
    )
    if doc["alerts"]:
        return _fail(
            f"ALERT [{alert['severity']}] {alert['rule']}: {alert['message']}"
            for alert in doc["alerts"]
        )
    print("health: OK (no alerts fired)")
    return 0


def _forensics(args: argparse.Namespace) -> int:
    from repro.observability.flightrecorder import GATED_CLASSES
    from repro.observability.forensics import (
        build_timeline,
        load_and_grade,
        render_scorecard,
        render_timeline,
        run_chaos_flight,
        run_healthy_flight,
        scorecard_gate,
    )

    if len(args.flight) > 1:
        raise UsageError("forensics takes at most one FLIGHT.json path")
    if sum([args.chaos, args.healthy, bool(args.flight)]) != 1:
        raise UsageError(
            "forensics requires exactly one of: a FLIGHT.json path, "
            "--chaos, or --healthy"
        )
    out = args.out

    if args.healthy:
        from repro.observability.monitor import monitor_scenarios

        scenario = args.scenario
        if scenario not in monitor_scenarios():
            raise UsageError(
                f"unknown scenario {scenario!r}; "
                f"available: {', '.join(monitor_scenarios())}"
            )
        health, doc, incidents = run_healthy_flight(
            scenario=scenario,
            inject=tuple(args.inject),
            limit=args.limit,
            out=out,
        )
        print(
            f"healthy run: {scenario} over {health['ticks']} tick(s), "
            f"{len(doc['records'])} flight record(s)"
        )
        if out is not None:
            print(f"flight document written to {out}")
        if args.timeline:
            print(render_timeline(build_timeline(doc)))
        if incidents:
            return _fail(f"INCIDENT: {incident}" for incident in incidents)
        print("no incidents: zero alerts, zero typed errors, "
              "zero false positives")
        return 0

    if args.chaos:
        campaign, doc, scorecard = run_chaos_flight(
            steps=args.steps,
            seed=args.seed,
            configs=_campaign_configs(args.configs),
            shard_count=args.shards,
            replicas=args.replicas,
            flaky=args.flaky,
            out=out,
        )
        print(render_scorecard(scorecard))
        if out is not None:
            print(f"flight document written to {out}")
        if args.timeline:
            print(render_timeline(build_timeline(doc)))
        problems = []
        if not campaign.ok:
            problems.extend(campaign.violations)
        problems.extend(scorecard_gate(scorecard, require=GATED_CLASSES))
        if problems:
            return _fail(f"GATE FAILED: {problem}" for problem in problems)
        print(
            "detection gate: every gated class (tamper, rollback, "
            "unrepairable) detected 100%, zero false positives"
        )
        return 0

    flight_path = args.flight[0]
    try:
        doc, scorecard = load_and_grade(flight_path)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    print(f"graded {flight_path}: {len(doc['records'])} record(s), "
          f"reason {doc['reason']!r}")
    print(render_scorecard(scorecard))
    if args.timeline:
        print(render_timeline(build_timeline(doc)))
    problems = scorecard_gate(scorecard)
    if problems:
        return _fail(f"GATE FAILED: {problem}" for problem in problems)
    print("scorecard gate: OK")
    return 0


def _parser() -> tuple[_Parser, dict]:
    """The CLI's parser, and its command parsers by name."""
    # Parent parsers hold the flags several commands share.  A command whose
    # default differs resolves it in its own body: set_defaults on one
    # command would rewrite the default of the shared action.
    configs = _Parser(add_help=False)
    configs.add_argument(
        "--configs", type=_slugs, metavar="SLUGS",
        help="comma-separated configurations out of plain, xor, append, dbsec2005, "
        "aead-eax, aead-ocb (default: all six; monitor: aead-eax)")
    campaign = _Parser(add_help=False)
    campaign.add_argument("--seed", type=_integer, default=0, metavar="N",
                          help="schedule seed (default: %(default)s)")
    campaign.add_argument("--shards", type=_at_least(1), default=2, metavar="N",
                          help="shards per keyspace (default: %(default)s)")
    campaign.add_argument("--replicas", type=_at_least(2), default=3, metavar="N",
                          help="mirrored replicas (default: %(default)s)")
    campaign.add_argument("--no-flaky", dest="flaky", action="store_false",
                          help="drop the flaky, retrying wrapper around each replica")
    keychain = _Parser(add_help=False)
    keychain.add_argument(
        "--old-key", dest="old_masters", action="append", default=[], type=_hex_key,
        metavar="HEX", help="an old master key; repeat --old-key and --old-seed to "
        "give the key chain oldest first (default: the seed repro-demo-master)")
    keychain.add_argument(
        "--old-seed", dest="old_masters", action="append", default=[],
        type=_seed_key, metavar="TEXT", help="an old master key derived from TEXT")
    keychain.add_argument("--shards", type=_at_least(1), default=2, metavar="N",
                          help="shards of a fresh keyspace (default: %(default)s)")
    keychain.add_argument("--config", type=_slug, default="aead-eax", metavar="SLUG",
                          help="configuration of a fresh keyspace (default: "
                          "%(default)s)")
    monitored = _Parser(add_help=False)
    monitored.add_argument(
        "--inject", action="append", default=[], type=_injection, metavar="FAULT",
        help="simulate cipher-miscount or wal-fallback, so that the alarms must "
        "ring and the run exit 1; repeatable")
    monitored.add_argument("--limit", type=_integer, metavar="N",
                           help="crash points of the rotation_campaign scenario")
    monitored.add_argument("--out", type=_output, metavar="PATH",
                           help="write the run's JSON document to PATH")

    parser = _Parser(
        prog="python -m repro",
        description="Reproduce Kühn's analysis of a database and index encryption "
        "scheme (SDM 2006): the Sect. 3 attacks, the Sect. 4 overhead, and the "
        "campaigns, benchmarks and monitors around the fixed scheme.",
        epilog="Run 'python -m repro <command> --help' for a command's flags.  "
        "Every command exits 0 on success, 1 on a finding (divergence, violation, "
        "alert, missed detection), and 2 on a usage error.")
    subparsers = parser.add_subparsers(
        title="Commands", dest="command", metavar="<command>")

    def command(name, run, summary, description=None, parents=()):
        sub = subparsers.add_parser(name, help=summary, parents=parents,
                                    description=description or summary)
        sub.set_defaults(run=run)
        return sub

    command("demo", _demo, "run the quickstart scenario end to end")
    command("attacks", _attacks, "run every Sect. 3 attack against the broken and "
            "fixed configurations and print the outcome table")
    command("overhead", _overhead,
            "print the Sect. 4 storage and blockcipher-invocation tables")
    sub = command("collisions", _collisions,
                  "rerun the paper's µ collision experiment")
    sub.add_argument("trials", nargs="?", type=_integer, default=1024, metavar="N",
                     help="trial addresses (default: %(default)s)")

    sub = command(
        "faultcampaign", _faultcampaign,
        "sweep seeded storage faults and print the detection matrix",
        "Sweep seeded storage faults across every configuration and print the "
        "detection matrix.  Exits 1 if the matrix contradicts the paper's claims "
        "or the resilient loader ever raises.")
    sub.add_argument("--seeds", type=_integer, default=25, metavar="N",
                     help="faults per configuration (default: %(default)s)")

    sub = command(
        "crashcampaign", _crashcampaign,
        "power-cut a journaled database at every write boundary",
        "Power-cut a journaled database at every write boundary of a seeded "
        "workload (the mutation phase) and of a sharded key rotation (the "
        "rotation phase).  Recovery must land on exactly the pre- or "
        "post-operation state, and each shard on exactly the old or the new key "
        "epoch.  Also checks that audit hooks and retried transient failures are "
        "byte-neutral.  Exits 1 on any violation.", parents=[configs])
    sub.add_argument("--rows", type=_at_least(1), default=5, metavar="N",
                     help="rows of the seeded workload (default: %(default)s)")
    sub.add_argument("--limit", type=_at_least(1), metavar="N",
                     help="cut at N evenly spaced boundaries instead of every one")
    sub.add_argument("--modes", type=_names, metavar="MODES",
                     help="comma-separated crash modes (default: cut,torn,drop)")
    sub.add_argument("--phases", type=_names, metavar="PHASES",
                     help="mutation, rotation, or both (the default)")

    sub = command(
        "chaoscampaign", _chaoscampaign,
        "the unified resilience campaign over replicated, sharded storage",
        "Per configuration, drive a sharded keyspace on a mirrored disk through a "
        "seeded schedule of inserts, checkpoints, key rotations, crashes, "
        "single-replica corruptions, scrubs, and lockstep rollbacks.  No "
        "acknowledged commit may be lost, every rollback must raise "
        "StaleImageError, every corruption must be repaired, and the replicas "
        "must converge byte for byte.  Exits 1 on any violation.",
        parents=[campaign, configs])
    sub.add_argument("--steps", type=_at_least(1), default=60, metavar="N",
                     help="schedule length (default: %(default)s)")

    sub = command(
        "scrub", _scrub, "one anti-entropy pass over a mirrored, sharded keyspace",
        "Verify every journal, checkpoint, and manifest MAC by MAC on every "
        "replica, elect the freshest authentic copy of each blob, and rewrite "
        "divergent or corrupt replicas from it.  Exits 1 if a blob has no "
        "authentic copy anywhere.", parents=[keychain])
    sub.add_argument("--replica", dest="replicas", action="append", default=[],
                     metavar="PATH", help="a replica directory; give at least two")
    sub.add_argument("--no-repair", dest="repair", action="store_false",
                     help="report divergent replicas without rewriting them")
    sub.add_argument("--demo", action="store_true",
                     help="seed a demo keyspace when the replicas are empty")
    sub.add_argument("--inject-fault", metavar="BLOB",
                     help="first corrupt BLOB on every replica (unrepairable)")

    sub = command(
        "rotate", _rotate, "online master-key rotation of a sharded keyspace",
        "Rotate the master key of the sharded keyspace in --dir, seeding a fresh "
        "directory with six demo rows first, then remount it and verify every "
        "rotated shard.  Without a new key, an interrupted rotation is resumed: "
        "the old chain must already hold the target epoch.  Exits 1 if a shard "
        "fails verification.", parents=[keychain])
    sub.add_argument("--dir", metavar="PATH",
                     help="the keyspace directory (required)")
    sub.add_argument("--new-key", dest="new_masters", action="append", default=[],
                     type=_hex_key, metavar="HEX", help="the new master key")
    sub.add_argument("--new-seed", dest="new_masters", action="append", default=[],
                     type=_seed_key, metavar="TEXT",
                     help="the new master key, derived from TEXT")
    sub.add_argument("--shard", metavar="ID", help="rotate this shard only")

    sub = command(
        "bench", _bench, "run the benchmark harness over every configuration",
        "Run the benchmark harness over every configuration and write a "
        "BENCH_<n>.json report.  Exits 1 if a measured count diverges from the "
        "Sect. 4 cost model or, with --baseline, if a scenario regressed.")
    sub.add_argument("--quick", action="store_true", help="the small profile")
    sub.add_argument("--scenarios", type=_names, metavar="NAMES",
                     help="comma-separated scenarios (default: all)")
    sub.add_argument("--out", type=_output, metavar="PATH",
                     help="report path (default: the next free BENCH_<n>.json)")
    sub.add_argument("--force", action="store_true",
                     help="overwrite an existing report")
    sub.add_argument("--baseline", metavar="PATH",
                     help="compare wall time and cipher counts with this report")
    sub.add_argument("--threshold", type=_threshold, metavar="F",
                     help="wall-time tolerance of --baseline (default: 0.25)")
    sub.add_argument("--delta-out", type=_output, metavar="PATH",
                     help="write the --baseline comparison to PATH")

    sub = command(
        "backendparity", _backendparity,
        "check that every cipher backend emits byte-identical output",
        "Every registered block-cipher backend must emit byte-identical blocks "
        "and database images for all six configurations, and batched inserts "
        "must match the sequential loop.  Exits 1 on any divergence.")
    sub.add_argument("--out", type=_output, metavar="PATH",
                     help="write the parity matrix as JSON")

    sub = command(
        "audit", _audit, "replay an audit log through the leakage monitor",
        "Replay a security audit log through the streaming leakage monitor and "
        "print the probe verdicts.  --live instead runs the seeded leakage "
        "workload per configuration and checks the streaming verdicts against "
        "the offline analysis and a replay; exits 1 on a mismatch.",
        parents=[configs])
    sub.add_argument("log", nargs="*", metavar="LOG.jsonl", help="the log to replay")
    sub.add_argument("--metrics-jsonl", type=_output, metavar="PATH",
                     help="write the leak.* metrics as JSONL")
    sub.add_argument("--metrics-prom", type=_output, metavar="PATH",
                     help="write the leak.* metrics as Prometheus text")
    sub.add_argument("--live", action="store_true", help="run the workload live")
    sub.add_argument("--log-dir", metavar="DIR",
                     help="with --live, keep the event logs and metrics in DIR")

    sub = command(
        "trace", _trace, "export a traced query workload as Chrome trace JSON",
        "Run a traced query workload per configuration and export every span as "
        "Chrome trace-event JSON, for Perfetto or chrome://tracing.",
        parents=[configs])
    sub.add_argument("--out", type=_output, metavar="PATH",
                     help="the trace file (required)")
    sub.add_argument("--scenario", default="point_query", metavar="NAME",
                     help="point_query or range_query (default: %(default)s)")

    sub = command(
        "explain", _explain, "EXPLAIN ANALYZE: profile each query of a scenario",
        "Print each query's per-operator profile per configuration: wall time, "
        "bytes, and measured against Sect. 4-predicted blockcipher calls.  Exits "
        "1 if a measured count diverges from the model.", parents=[configs])
    sub.add_argument("scenario", nargs="*", metavar="SCENARIO",
                     help="point_query or range_query")

    sub = command(
        "monitor", _monitor, "check the health rules over a monitored scenario",
        "Run a bench scenario or the rotation_campaign sweep under the telemetry "
        "hub, evaluate the health rules on the labelled series, and write a "
        "schema-validated HEALTH.json.  Exits 1 when an alert fires.",
        parents=[configs, monitored])
    sub.add_argument("--scenario", default="shard_rotation", metavar="NAME",
                     help="the scenario (default: %(default)s)")
    sub.add_argument("--quick", action="store_true", help="the small profile")
    sub.add_argument("--follow", action="store_true",
                     help="print a live per-tick dashboard")
    sub.add_argument("--baseline", metavar="PATH",
                     help="a BENCH_<n>.json for the p99 regression rule")
    sub.add_argument("--rules", metavar="PATH",
                     help="extra declarative rules, as a JSON array")
    sub.add_argument("--prom", type=_output, metavar="PATH",
                     help="export the series as Prometheus text")
    sub.add_argument("--jsonl", type=_output, metavar="PATH",
                     help="export the series as JSONL")

    sub = command(
        "forensics", _forensics, "grade a flight recording against its faults",
        "Join a FLIGHT.json's injected faults against the detections the stack "
        "emitted and print the per-class detection scorecard.  --chaos records "
        "the seeded chaos campaign and requires 100% detection of every gated "
        "class with no false alarm; --healthy requires a fault-free monitored "
        "run to record no incident.  Exits 1 when a gate fails.",
        parents=[campaign, configs, monitored])
    sub.add_argument("flight", nargs="*", metavar="FLIGHT.json",
                     help="the flight document to grade")
    sub.add_argument("--chaos", action="store_true",
                     help="record and grade a chaos flight")
    sub.add_argument("--healthy", action="store_true",
                     help="run the false-alarm control")
    sub.add_argument("--timeline", action="store_true",
                     help="also print the causally ordered incident timeline")
    sub.add_argument("--steps", type=_at_least(1), default=24, metavar="N",
                     help="chaos schedule length (default: %(default)s)")
    sub.add_argument("--scenario", default="point_query", metavar="NAME",
                     help="the --healthy scenario (default: %(default)s)")
    return parser, subparsers.choices


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = _parser()
    if not argv:
        parser.print_help()
        return 2
    try:
        if argv[0] not in commands and argv[0] not in ("-h", "--help"):
            raise UsageError(f"unknown command {argv[0]!r}")
        try:
            args, extras = parser.parse_known_args(argv)
        except SystemExit as exc:  # -h/--help printed the help text
            return exc.code
        if extras:
            raise UsageError(f"unknown {args.command} argument {extras[0]!r}")
        return args.run(args)
    except UsageError as exc:
        print(f"error: {exc}\n", file=sys.stderr)
        parser.print_help()
        return 2


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout went away.  Python flushes stdout again at
        # exit; pointing it at devnull keeps that flush from failing too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status)
