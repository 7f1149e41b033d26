"""Pattern-matching attacks (paper Sect. 3.1, first attack; footnote 2).

"Common prefixes in the plaintext (longer than one block) will result in
common prefixes in the ciphertext, clearly violating the goal of
protection against pattern matching."

The adversary reads stored cell bytes for one column and reports every
pair of cells whose ciphertexts share at least ``min_blocks`` leading
blocks, inferring shared plaintext prefixes.  Against the AEAD fix the
same procedure finds nothing (fresh nonces randomise every ciphertext).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attacks.adversary import AttackOutcome
from repro.aead.base import comparable_ciphertext
from repro.core.encrypted_db import StorageView
from repro.primitives.util import common_prefix_blocks


@dataclass(frozen=True)
class PrefixMatch:
    """The adversary's inference: two cells share a plaintext prefix."""

    row_a: int
    row_b: int
    shared_blocks: int


def find_cell_prefix_matches(
    storage: StorageView,
    table: str,
    column: int,
    block_size: int = 16,
    min_blocks: int = 1,
) -> list[PrefixMatch]:
    """All pairs of cells in a column with a common ciphertext prefix."""
    cells = [
        (row_id, comparable_ciphertext(stored))
        for row_id, stored in storage.cells(table, column)
    ]
    matches = []
    for i in range(len(cells)):
        row_a, ct_a = cells[i]
        for j in range(i + 1, len(cells)):
            row_b, ct_b = cells[j]
            shared = common_prefix_blocks(ct_a, ct_b, block_size)
            if shared >= min_blocks:
                matches.append(PrefixMatch(row_a, row_b, shared))
    return matches


def evaluate_pattern_matching(
    storage: StorageView,
    table: str,
    column: int,
    true_pairs: set[tuple[int, int]],
    scheme: str,
    block_size: int = 16,
    min_blocks: int = 1,
) -> AttackOutcome:
    """Score the adversary's inferences against ground truth.

    ``true_pairs`` holds the (row_a, row_b) pairs whose *plaintexts*
    really share ≥ min_blocks blocks of prefix (known to the experiment,
    not the adversary).  Precision/recall quantify the leak; the paper's
    claim is recall 1.0 under zero-IV CBC and 0 matches under the fix.
    """
    matches = find_cell_prefix_matches(storage, table, column, block_size, min_blocks)
    claimed = {tuple(sorted((m.row_a, m.row_b))) for m in matches}
    truth = {tuple(sorted(pair)) for pair in true_pairs}
    true_positives = len(claimed & truth)
    precision = true_positives / len(claimed) if claimed else 1.0
    recall = true_positives / len(truth) if truth else 1.0
    return AttackOutcome(
        attack="pattern-matching",
        scheme=scheme,
        succeeded=bool(claimed & truth),
        detail=f"{len(claimed)} pairs claimed, {len(truth)} real",
        metrics={
            "claimed": len(claimed),
            "true_pairs": len(truth),
            "precision": precision,
            "recall": recall,
        },
    )


def keystream_reuse_break(
    ciphertext_a: bytes,
    known_plaintext_a: bytes,
    ciphertext_b: bytes,
) -> bytes:
    """Footnote 2: deterministic stream modes reuse their keystream.

    With one known plaintext, ``C_a ⊕ P_a ⊕ C_b = P_b`` on the
    overlapping length — full plaintext recovery, no key involved.
    """
    usable = min(len(ciphertext_a), len(known_plaintext_a), len(ciphertext_b))
    recovered = bytearray()
    for i in range(usable):
        recovered.append(ciphertext_a[i] ^ known_plaintext_a[i] ^ ciphertext_b[i])
    return bytes(recovered)
