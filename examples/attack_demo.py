#!/usr/bin/env python3
"""A guided tour of the paper's Sect. 3: run every attack live.

Builds databases under the *original* [3]/[12] instantiations (zero-IV
CBC, shared key, published query code) and executes Kühn's seven
counter-examples against them — then repeats the lot against the
Sect. 4 AEAD fix and watches everything bounce off.

Run:  python examples/attack_demo.py
"""

from repro.attacks import (
    evaluate_append_forgery,
    evaluate_index_linkage,
    evaluate_mac_interaction,
    evaluate_pattern_matching,
    evaluate_substitution,
    find_partial_collisions,
    running_row_addresses,
    true_index_links,
)
from repro.core import EncryptedDatabase, EncryptionConfig, ascii_validator
from repro.engine import Column, ColumnType, TableSchema
from repro.workloads import build_documents_db, default_rng, single_block_ascii


def banner(text: str) -> None:
    print(f"\n{'-' * 68}\n{text}\n{'-' * 68}")


def main() -> None:
    rows, groups = 24, 6
    true_pairs = {
        (i, j) for i in range(rows) for j in range(i + 1, rows)
        if i % groups == j % groups
    }

    banner("Victim 1: [3] Append-Scheme cells + sdm2004 index, zero-IV CBC")
    broken = build_documents_db(
        EncryptionConfig(cell_scheme="append", index_scheme="sdm2004"),
        rows=rows, groups=groups,
    )
    storage = broken.storage_view()
    print(evaluate_pattern_matching(storage, "documents", 1, true_pairs, "append"))
    print(evaluate_append_forgery(broken, storage, "documents", 1, "body", 64, "append"))
    index = broken.index("documents_by_body").structure
    print(evaluate_index_linkage(
        storage, "documents_by_body", "documents", 1,
        true_index_links(index), "sdm2004",
    ))

    banner("Victim 2: XOR-Scheme with ASCII redundancy (the paper's experiment)")
    xor_db = EncryptedDatabase(
        b"demo-master-key-0123456789abcdef",
        EncryptionConfig(cell_scheme="xor", index_scheme="plain",
                         xor_validator=ascii_validator),
    )
    xor_db.create_table(TableSchema("cells", [Column("v", ColumnType.TEXT)]))
    rng = default_rng("attack-demo")
    for _ in range(1024):
        xor_db.insert("cells", [single_block_ascii(rng)])
    collisions = find_partial_collisions(running_row_addresses(
        xor_db.storage_view().table_id("cells"), 0, 1024
    ))
    print(f"offline µ scan over 1024 addresses: {len(collisions)} partial "
          "collisions (paper found 6, expectation ≈ 8)")
    print(evaluate_substitution(
        xor_db, xor_db.storage_view(), "cells", 0, "v", 1024, "xor"
    ))

    banner("Victim 3: [12] improved index, same key for Ẽ and OMAC")
    dbsec = build_documents_db(
        EncryptionConfig(cell_scheme="append", index_scheme="dbsec2005"),
        rows=rows, groups=rows,
    )
    index = dbsec.index("documents_by_body").structure
    print(evaluate_index_linkage(
        dbsec.storage_view(), "documents_by_body", "documents", 1,
        true_index_links(index), "dbsec2005",
    ))
    print(evaluate_mac_interaction(index, 64, "dbsec2005"))

    banner("The fix: AEAD (EAX) with addresses as associated data — Sect. 4")
    fixed = build_documents_db(
        EncryptionConfig.paper_fixed("eax"), rows=rows, groups=groups
    )
    storage = fixed.storage_view()
    print(evaluate_pattern_matching(storage, "documents", 1, true_pairs, "aead"))
    print(evaluate_append_forgery(fixed, storage, "documents", 1, "body", 64, "aead"))
    print(evaluate_index_linkage(
        storage, "documents_by_body", "documents", 1, {}, "aead"
    ))
    from repro.attacks import evaluate_index_forgery
    print(evaluate_index_forgery(fixed.index("documents_by_body").structure, 64, "aead"))

    print("\nConclusion (the paper's): the basic ideas of [3] and [12] are")
    print("sound, but only an AEAD instantiation achieves the stated goals.")


if __name__ == "__main__":
    main()
