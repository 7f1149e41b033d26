"""Fault injector: determinism, replayability, and byte-surgery semantics."""

import hashlib
import json
import re
import struct
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encrypted_db import EncryptedDatabase, EncryptionConfig
from repro.engine.indextable import IndexTable
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.engine.storage import dump_database, load_database, parse_image
from repro.errors import StorageFormatError
from repro.robustness.campaign import (
    CAMPAIGN_CONFIGS,
    build_campaign_db,
    default_campaign_configs,
)
from repro.robustness.faults import (
    BLOCK,
    FAULT_KINDS,
    FaultSpec,
    map_image,
    plan_fault,
    plan_faults,
)

MASTER = b"faults-test-key-0123456789abcdef"

SCHEMA = TableSchema("t", [
    Column("k", ColumnType.INT),
    Column("v", ColumnType.TEXT),
])


def build_image(config: EncryptionConfig | None = None) -> bytes:
    if config is None:
        config = EncryptionConfig.paper_fixed("eax")
    db = EncryptedDatabase(MASTER, config)
    db.create_table(SCHEMA)
    for i in range(10):
        db.insert("t", [i, f"value-{i:03d}-{'x' * 40}"])
    db.create_index("t_k", "t", "k", kind="table")
    db.create_index("t_v", "t", "v", kind="btree")
    return dump_database(db)


def test_planning_is_deterministic():
    image = build_image()
    first = plan_faults(image, 20)
    second = plan_faults(image, 20)
    assert first == second


def test_application_is_deterministic():
    image = build_image()
    for spec in plan_faults(image, 20):
        assert spec.apply(image) == spec.apply(image)


def test_apply_never_mutates_the_input():
    image = build_image()
    pristine = bytes(image)
    for spec in plan_faults(image, 20):
        spec.apply(image)
    assert image == pristine


def test_every_fault_changes_the_image():
    image = build_image()
    for spec in plan_faults(image, 20):
        assert spec.apply(image) != image, spec.name


def test_first_seeds_cover_the_whole_taxonomy():
    # Seeds 0..7 walk FAULT_KINDS in order, so even small campaigns
    # exercise every fault family (block corruption lands by seed 2).
    image = build_image()
    specs = plan_faults(image, len(FAULT_KINDS))
    assert [s.kind for s in specs] == list(FAULT_KINDS)


def test_map_image_charts_every_cell_payload():
    image = build_image()
    chart = map_image(image)
    cell_spans = [p for p in chart.payloads if p.group.startswith("cell:")]
    assert len(cell_spans) == 10 * 2  # 10 rows x 2 columns
    for span in cell_spans:
        assert 0 <= span.prefix_start < span.start <= span.end <= chart.size
        # The length prefix in the image frames exactly this span.
        (length,) = struct.unpack_from(">I", image, span.prefix_start)
        assert length == len(span)


def test_record_duplicate_patches_the_count_field():
    image = build_image()
    chart = map_image(image)
    record = chart.records[0]
    spec = FaultSpec(
        "record-duplicate", 0,
        (record.start, record.end, record.count_offset),
    )
    faulted = spec.apply(image)
    assert len(faulted) == len(image) + (record.end - record.start)
    (before,) = struct.unpack_from(">q", image, record.count_offset)
    (after,) = struct.unpack_from(">q", faulted, record.count_offset)
    assert after == before + 1


def test_record_delete_patches_the_count_field():
    image = build_image()
    chart = map_image(image)
    record = chart.records[0]
    spec = FaultSpec(
        "record-delete", 0,
        (record.start, record.end, record.count_offset),
    )
    faulted = spec.apply(image)
    assert len(faulted) == len(image) - (record.end - record.start)
    (before,) = struct.unpack_from(">q", image, record.count_offset)
    (after,) = struct.unpack_from(">q", faulted, record.count_offset)
    assert after == before - 1


def test_payload_swap_preserves_image_length():
    image = build_image()
    chart = map_image(image)
    spans = [p for p in chart.payloads if p.group == "cell:t:1"]
    a, b = spans[0], spans[3]
    spec = FaultSpec(
        "payload-swap", 0,
        (a.prefix_start, a.end, b.prefix_start, b.end),
    )
    faulted = spec.apply(image)
    assert len(faulted) == len(image)
    # Payload a's bytes (prefix included) now sit at b's former slot.
    moved = image[a.prefix_start:a.end]
    assert faulted[b.prefix_start:b.prefix_start + len(moved)] == moved


def test_block_corrupt_stays_inside_one_payload():
    image = build_image()
    chart = map_image(image)
    for seed in range(40):
        spec = plan_fault(chart, seed)
        if spec.kind != "block-corrupt":
            continue
        offset, length, _ = spec.params
        assert length == BLOCK
        hosts = [
            p for p in chart.payloads
            if p.start <= offset and offset + length <= p.end
        ]
        assert hosts, f"{spec.name} not inside any payload"


def test_unknown_fault_kind_rejected():
    with pytest.raises(ValueError):
        FaultSpec("warp-core-breach", 0, (0,)).apply(b"\x00" * 64)


def test_spec_name_is_replay_friendly():
    spec = FaultSpec("bitflip", 3, (17, 5), target="t(r=0,c=1)")
    assert spec.name == "bitflip#3(17,5)@t(r=0,c=1)"


# -- bounds validation: a spec planned for one image must not silently
# -- degrade on a differently-shaped one (Python slices never raise, so
# -- apply() has to check explicitly).

def test_apply_rejects_out_of_image_offsets():
    image = b"\x00" * 64
    out_of_bounds = [
        FaultSpec("bitflip", 0, (64, 0)),             # offset == len
        FaultSpec("bitflip", 0, (-1, 0)),             # negative offset
        FaultSpec("bitflip", 0, (3, 8)),              # bit out of range
        FaultSpec("multi-bitflip", 0, (3, 1, 200, 0)),
        FaultSpec("multi-bitflip", 0, (3, 1, 5)),     # odd param count
        FaultSpec("block-corrupt", 0, (60, 16, 7)),   # spans past the end
        FaultSpec("block-corrupt", 0, (-4, 16, 7)),
        FaultSpec("truncate", 0, (65,)),              # keep > len
        FaultSpec("truncate", 0, (-1,)),
        FaultSpec("record-delete", 0, (40, 80, 8)),   # end past the image
        FaultSpec("record-delete", 0, (40, 30, 8)),   # start > end
        FaultSpec("record-delete", 0, (40, 48, 36)),  # count inside span
        FaultSpec("record-duplicate", 0, (40, 80, 8)),
        FaultSpec("record-duplicate", 0, (10, 20, 30)),  # count after span
        FaultSpec("pointer-scramble", 0, (60, 1)),    # 8 octets don't fit
        FaultSpec("payload-swap", 0, (8, 16, 12, 24)),   # overlapping spans
        FaultSpec("payload-swap", 0, (8, 16, 60, 72)),   # b_end past the end
        FaultSpec("payload-swap", 0, (16, 24, 8, 12)),   # out of order
    ]
    for spec in out_of_bounds:
        with pytest.raises(ValueError, match="does not fit"):
            spec.apply(image)


def test_apply_bounds_error_names_the_spec():
    with pytest.raises(ValueError, match=r"truncate#0\(99\)"):
        FaultSpec("truncate", 0, (99,)).apply(b"\x00" * 64)


def test_in_bounds_edge_cases_still_apply():
    image = bytes(range(64))
    # Last byte, highest bit.
    assert FaultSpec("bitflip", 0, (63, 7)).apply(image) != image
    # truncate keeping everything is a structural no-op.
    assert FaultSpec("truncate", 0, (64,)).apply(image) == image
    # Pointer flush against the end of the image.
    assert FaultSpec("pointer-scramble", 0, (56, -1)).apply(image) != image
    # Adjacent, touching swap spans.
    swapped = FaultSpec("payload-swap", 0, (8, 16, 16, 24)).apply(image)
    assert swapped == image[:8] + image[16:24] + image[8:16] + image[24:]


def test_every_planned_fault_stays_in_bounds():
    # The planner only emits specs that apply() accepts on their image.
    image = build_image()
    for spec in plan_faults(image, 40):
        spec.apply(image)  # must not raise


# -- the chart: what the image parser's walk notes about every byte

#: SHA-256 of the charts, and of the 25-fault plans, of the 8-row images
#: of ``default_campaign_configs()``.  A chart change moves every plan
#: (the planner draws from the chart's lists), so both are pinned.
CHART_DIGEST = "f24490989919b94b124092e1e93fa6d8be1d7520b3308ea935589fabf4f6a00c"
PLAN_DIGEST = "edf415ed0ab50086d6e1a9ba38d8a33daeed75734c741d39b4fdff0496f77553"


def test_campaign_charts_and_fault_plans_are_pinned():
    charts, plans = [], []
    for _, config in default_campaign_configs():
        image = dump_database(build_campaign_db(config, 8))
        chart = map_image(image)
        assert (len(chart.payloads), len(chart.records), len(chart.pointers)) == (
            47, 24, 48,
        )
        charts.append([
            chart.size,
            [[p.where, p.group, p.start, p.end] for p in chart.payloads],
            [[r.where, r.start, r.end, r.count_offset] for r in chart.records],
            [[offset, value] for offset, value in chart.pointers],
        ])
        plans.append([spec.name for spec in plan_faults(image, 25)])
    assert hashlib.sha256(json.dumps(charts).encode()).hexdigest() == CHART_DIGEST
    assert hashlib.sha256(json.dumps(plans).encode()).hexdigest() == PLAN_DIGEST


def stored_payload(db, where: str) -> tuple[str, bytes]:
    """The swap group of a chart position and the payload the database
    holds there."""
    if match := re.fullmatch(r"(\w+)\(r=(\d+),c=(\d+)\)", where):
        table, row, column = match.groups()
        return (
            f"cell:{table}:{column}", db.table(table).get_row(int(row))[int(column)]
        )
    if match := re.fullmatch(r"idx:(\w+)\[n(\d+)\.(\d+)\]", where):
        name, node, slot = match.groups()
        structure = db.index(name).structure
        return f"index:{name}", structure.node(int(node)).entries[int(slot)].payload
    name, row = re.fullmatch(r"idx:(\w+)\[(\d+)\]", where).groups()
    return f"index:{name}", db.index(name).structure.row(int(row)).payload


def stored_links(db) -> list[int]:
    """Every structural reference of the indexes, in image order."""
    links = []
    for name in db.index_names:
        structure = db.index(name).structure
        links.append(structure.root_id)
        if isinstance(structure, IndexTable):
            for row in structure.raw_rows():
                links += [row.left, row.right, row.sibling]
        else:
            for node_id in sorted(structure._nodes):
                node = structure.node(node_id)
                links += [node.next_leaf, *node.children]
    return links


PROPERTY_SCHEMA = TableSchema("t", [
    Column("k", ColumnType.INT),
    Column("v", ColumnType.TEXT),
])


@pytest.mark.parametrize("slug", ["plain", "append", "aead-eax"])
@settings(max_examples=4, deadline=None, derandomize=True)
@given(
    keys=st.lists(st.integers(0, 99), min_size=8, max_size=16, unique=True),
    deletes=st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True),
)
def test_the_chart_holds_what_the_parsed_database_holds(slug, keys, deletes):
    # Both index kinds; a tree of order 3 splits, deletes leave tombstones.
    db = EncryptedDatabase(MASTER, CAMPAIGN_CONFIGS[slug][1])
    db.create_table(PROPERTY_SCHEMA)
    db.create_index("t_k", "t", "k", kind="table")
    db.create_index("t_v", "t", "v", kind="btree", order=3)
    for key in keys:
        db.insert("t", [key, f"v{key:03d}"])
    for row in deletes:
        db.delete_row("t", row)
    image = dump_database(db)
    chart = map_image(image)
    parsed = parse_image(image).database
    rows = parsed.index("t_k").structure.raw_rows
    tree = parsed.index("t_v").structure
    assert any(row.deleted for row in rows())
    assert tree.node(tree.root_id).children

    assert chart.size == len(image)
    expected = {
        f"t(r={row},c={column})"
        for row in parsed.table("t").row_ids
        for column in range(2)
    }
    expected |= {f"idx:t_k[{row.row_id}]" for row in rows()}
    expected |= {f"idx:t_v[n{node}.{slot}]" for node, slot, _ in tree.raw_entries()}
    assert sorted(p.where for p in chart.payloads) == sorted(expected)
    for span in chart.payloads:
        (length,) = struct.unpack_from(">I", image, span.prefix_start)
        assert length == len(span)
        assert (span.group, image[span.start:span.end]) == stored_payload(
            parsed, span.where
        )

    assert [value for _, value in chart.pointers] == stored_links(parsed)
    for offset, value in chart.pointers:
        assert struct.unpack_from(">q", image, offset) == (value,)

    counts = Counter(record.count_offset for record in chart.records)
    for count_at, records in counts.items():
        assert struct.unpack_from(">q", image, count_at) == (records,)
    previous = None
    for record in chart.records:
        # The records under one count follow it back to back.
        first = previous is None or previous.count_offset != record.count_offset
        assert record.start == (record.count_offset + 8 if first else previous.end)
        assert record.start < record.end
        previous = record


def duplicate_first_record(image: bytes) -> bytes:
    record = map_image(image).records[0]
    return FaultSpec(
        "record-duplicate", 0, (record.start, record.end, record.count_offset)
    ).apply(image)


@pytest.mark.parametrize("damage, error", [
    (
        lambda image: image[:-5],
        "truncated storage image: 98 payload bytes declared, 93 present "
        "(at offset 5243)",
    ),
    (
        lambda image: image + b"\x00",
        "1 trailing byte(s) after the last index record (at offset 5341)",
    ),
    (duplicate_first_record, "duplicate row 0 in table 'records' (at offset 401)"),
], ids=["lost-framing", "trailing-bytes", "duplicate-record"])
def test_map_image_refuses_what_the_strict_loader_refuses(damage, error):
    # A chart describes the bytes the loader reads, so an image the
    # strict loader refuses is not charted: both raise the same error.
    config = CAMPAIGN_CONFIGS["aead-eax"][1]
    image = damage(dump_database(build_campaign_db(config, 8)))
    for read in (load_database, map_image):
        with pytest.raises(StorageFormatError) as excinfo:
            read(image)
        assert str(excinfo.value) == error
