"""E3: the XOR-Scheme substitution attack and the collision experiment."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.substitution import (
    evaluate_substitution,
    expected_collisions,
    find_partial_collisions,
    predicted_relocated_value,
    relocate_ciphertext,
    running_row_addresses,
)
from repro.core.address import KeyedMu, default_mu
from repro.core.cellcrypto import ascii_validator
from repro.core.encrypted_db import EncryptedDatabase, EncryptionConfig
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.engine.table import CellAddress
from repro.errors import DecryptionError
from repro.primitives.util import ascii_high_bits, is_ascii, xor_bytes_strict
from repro.workloads.generators import default_rng, single_block_ascii

MASTER = b"substitution-test-master-key-012"
SCHEMA = TableSchema("cells", [Column("v", ColumnType.TEXT)])


def build_xor_db(rows: int) -> EncryptedDatabase:
    config = EncryptionConfig(
        cell_scheme="xor", index_scheme="plain", xor_validator=ascii_validator
    )
    db = EncryptedDatabase(MASTER, config)
    db.create_table(SCHEMA)
    rng = default_rng("substitution")
    for _ in range(rows):
        db.insert("cells", [single_block_ascii(rng)])
    return db


def test_expected_collision_count_formula():
    # C(1024, 2) / 2^16 ≈ 7.99 — the paper found 6, we should land nearby.
    assert abs(expected_collisions(1024) - 7.99) < 0.01
    assert expected_collisions(2048) == pytest.approx(31.98, abs=0.1)


def test_running_addresses_shape():
    addresses = running_row_addresses(3, 1, 10, start_row=5)
    assert len(addresses) == 10
    assert addresses[0] == CellAddress(3, 5, 1)
    assert all(a.table == 3 and a.column == 1 for a in addresses)


def test_collision_scan_finds_birthday_count():
    addresses = running_row_addresses(1, 0, 1024)
    collisions = find_partial_collisions(addresses)
    # Within generous Poisson bounds of the expectation ≈ 8.
    assert 1 <= len(collisions) <= 25


def test_keyed_mu_blocks_offline_scan():
    """With HMAC-µ the adversary cannot evaluate µ; scanning with the
    *public* hash yields pairs that do not actually collide under the
    keyed µ used by the scheme."""
    addresses = running_row_addresses(1, 0, 256)
    public_collisions = find_partial_collisions(addresses)
    keyed = KeyedMu(b"the-secret-mu-key")
    keyed_collisions = find_partial_collisions(addresses, keyed)
    public_pairs = {(c.address_a, c.address_b) for c in public_collisions}
    keyed_pairs = {(c.address_a, c.address_b) for c in keyed_collisions}
    # The two scans disagree (up to negligible coincidence).
    assert public_pairs != keyed_pairs or not public_pairs


def test_relocation_is_accepted_and_predictable():
    db = build_xor_db(1024)
    storage = db.storage_view()
    table_id = storage.table_id("cells")
    collisions = find_partial_collisions(running_row_addresses(table_id, 0, 1024))
    assert collisions, "1024 addresses should yield collisions (exp ≈ 8)"
    collision = collisions[0]
    original_at_a = db.get_cell_plaintext("cells", collision.address_a.row, "v")
    result = relocate_ciphertext(db, storage, "cells", 0, "v", collision)
    assert result.accepted
    assert result.moved_value != result.original_value
    assert is_ascii(result.moved_value)
    # The adversary can predict the implanted value exactly.
    assert result.moved_value == predicted_relocated_value(original_at_a, collision)


def test_full_experiment_outcome():
    db = build_xor_db(1024)
    outcome = evaluate_substitution(
        db, db.storage_view(), "cells", 0, "v", 1024, "xor"
    )
    assert outcome.succeeded
    assert outcome.metrics["collisions"] >= 1
    assert outcome.metrics["relocations_accepted"] == outcome.metrics[
        "relocations_attempted"
    ]
    assert outcome.metrics["expected_collisions"] == pytest.approx(7.99, abs=0.01)


def test_attack_fails_against_aead_cells():
    config = EncryptionConfig.paper_fixed("eax")
    db = EncryptedDatabase(MASTER, config)
    db.create_table(SCHEMA)
    rng = default_rng("substitution-aead")
    for _ in range(256):
        db.insert("cells", [single_block_ascii(rng)])
    outcome = evaluate_substitution(
        db, db.storage_view(), "cells", 0, "v", 256, "aead"
    )
    assert not outcome.succeeded
    assert outcome.metrics["relocations_accepted"] == 0


# -- E3 as an exact property --------------------------------------------------

XOR_CELLS = EncryptedDatabase(MASTER, EncryptionConfig(
    cell_scheme="xor", index_scheme="plain", xor_validator=ascii_validator
)).cell_codec


@functools.cache
def paper_pairs() -> list[tuple[CellAddress, CellAddress]]:
    """The pairs the paper's 1024-address scan finds under SHA-1/128."""
    scan = find_partial_collisions(running_row_addresses(1, 0, 1024))
    assert len(scan) == 9
    return [(c.address_a, c.address_b) for c in scan]


ascii_blocks = st.binary(min_size=16, max_size=16).map(
    lambda raw: bytes(octet & 0x7F for octet in raw)
)
addresses = st.builds(
    CellAddress, *[st.integers(0, 2**64 - 1)] * 3
)
address_pairs = st.one_of(
    st.deferred(lambda: st.sampled_from(paper_pairs())),
    st.tuples(addresses, addresses),
)


@given(value=ascii_blocks, pair=address_pairs)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_relocation_is_accepted_exactly_when_mu_high_bits_agree(value, pair):
    """§3.1: a ciphertext moved from a to b decodes to V ⊕ µ(a) ⊕ µ(b),
    which passes the ASCII check iff µ(a) and µ(b) agree on every
    octet's high bit."""
    a, b = pair
    mu = default_mu()
    agree = ascii_high_bits(mu(a)) == ascii_high_bits(mu(b))
    stored = XOR_CELLS.encode_cell(value, a)
    try:
        moved = XOR_CELLS.decode_cell(stored, b)
    except DecryptionError:
        assert not agree
    else:
        assert agree
        assert moved == xor_bytes_strict(xor_bytes_strict(value, mu(a)), mu(b))
