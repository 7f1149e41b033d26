"""Batch cell-codec names: ``encode_cells``/``decode_cells`` == the loop.

``CellCodec`` keeps the two names as plain loops over the per-cell
methods (``perfbench/tracing.py`` resolves them by name); no codec
overrides them.  For every campaign configuration and both cipher
backends, a fresh codec driven through them must emit exactly the bytes
a twin codec emits through the per-cell loop — same nonce/IV draws,
same stored entries, same plaintexts back.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encrypted_db import EncryptedDatabase
from repro.engine.table import CellAddress
from repro.robustness.campaign import default_campaign_configs

MASTER_KEY = b"batch-codec-test-key-0123456789ab"

CONFIGS = dict(default_campaign_configs())
LABELS = sorted(CONFIGS)
BACKENDS = ["pure", "optimized"]

CELL_SHAPES = [
    [],
    [b"one"],
    [b"a" * 16],  # exactly one block
    [b"a" * 15, b"b" * 16, b"c" * 17],  # straddles the block boundary
    [b"", b"short", b"m" * 33, b"n" * 48, b"tail"],  # mixed lengths
]


def fresh_codec(label, backend):
    config = CONFIGS[label].with_(backend=backend)
    return EncryptedDatabase(MASTER_KEY, config).cell_codec


def addresses(count):
    return [CellAddress(3, 100 + i, i % 4) for i in range(count)]


@pytest.mark.parametrize("label", LABELS)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("plaintexts", CELL_SHAPES)
def test_encode_cells_equals_loop(label, backend, plaintexts):
    items = list(zip(plaintexts, addresses(len(plaintexts))))
    loop_codec = fresh_codec(label, backend)
    batch_codec = fresh_codec(label, backend)
    expected = [loop_codec.encode_cell(plain, address) for plain, address in items]
    assert batch_codec.encode_cells(items) == expected


@pytest.mark.parametrize("label", LABELS)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("plaintexts", CELL_SHAPES)
def test_decode_cells_round_trips(label, backend, plaintexts):
    if label == "[3] XOR-Scheme":
        # The paper's no-validator XOR decode zero-extends short values
        # (Sect. 2.2); restrict to µ-width cells so round-trips are exact.
        plaintexts = [plain.ljust(16, b"\x00") for plain in plaintexts]
    items = list(zip(plaintexts, addresses(len(plaintexts))))
    codec = fresh_codec(label, backend)
    stored = codec.encode_cells(items)
    stored_items = [(blob, address) for blob, (_, address) in zip(stored, items)]
    decoded = codec.decode_cells(stored_items)
    for plain, got in zip(plaintexts, decoded):
        assert got[: len(plain)] == plain


@pytest.mark.parametrize("label", LABELS)
def test_per_column_grouping_preserves_nonce_order(label):
    # Interleave three columns; each column's nonce counter must
    # advance exactly as the sequential loop advances it.
    config = CONFIGS[label]
    if config.cell_scheme != "aead":
        pytest.skip("per-column keys are an AEAD-scheme feature")
    config = config.with_(per_column_keys=True)
    loop_codec = EncryptedDatabase(MASTER_KEY, config).cell_codec
    batch_codec = EncryptedDatabase(MASTER_KEY, config).cell_codec
    items = [
        (b"cell-%d" % i, CellAddress(7, i, i % 3)) for i in range(9)
    ]
    expected = [loop_codec.encode_cell(plain, address) for plain, address in items]
    got = batch_codec.encode_cells(items)
    assert got == expected
    stored_items = [(blob, address) for blob, (_, address) in zip(got, items)]
    assert batch_codec.decode_cells(stored_items) == [plain for plain, _ in items]


@pytest.mark.parametrize(
    "label", ["[3] Append-Scheme", "fixed AEAD (EAX)", "fixed AEAD (OCB)"]
)
@given(st.lists(st.binary(max_size=70), max_size=6))
@settings(max_examples=20, deadline=None)
def test_batch_encode_property(label, plaintexts):
    items = list(zip(plaintexts, addresses(len(plaintexts))))
    loop_codec = fresh_codec(label, "pure")
    batch_codec = fresh_codec(label, "optimized")
    expected = [loop_codec.encode_cell(plain, address) for plain, address in items]
    assert batch_codec.encode_cells(items) == expected
