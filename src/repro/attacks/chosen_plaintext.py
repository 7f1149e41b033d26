"""Chosen-plaintext confirmation against deterministic cell encryption.

The goals of [3] include "protection against pattern matching" — which
must hold against *active* adversaries too.  Consider an attacker with a
legitimate low-privilege write path into the same table (a self-service
profile field, a sign-up form, an imported record).  Under eq. (3)'s
determinism the first ciphertext block of the Append-Scheme is
``C_1 = ENC_k(V_1)`` — it depends only on the value's first block, not
on the cell address (the zero IV erases the position, and µ is appended
*after* V).  So the attacker:

1. guesses a candidate value,
2. writes it into their own row,
3. compares their cell's first stored block against the victim's.

A match *confirms the guess exactly* — turning the passive equality leak
into an interactive dictionary oracle.  This is the sharpest consequence
of the determinism assumption and needs no key, no collisions, and no
tampering; only insert access.  The AEAD fix kills it because every
encryption is randomised by a fresh nonce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.attacks.adversary import AttackOutcome
from repro.aead.base import comparable_ciphertext
from repro.core.encrypted_db import EncryptedDatabase, StorageView


@dataclass(frozen=True)
class ConfirmedGuess:
    """One victim cell whose value the oracle confirmed."""

    victim_row: int
    value: Any


def confirm_guess(
    db: EncryptedDatabase,
    storage: StorageView,
    table: str,
    column: int,
    insert_row: Callable[[Any], int],
    victim_row: int,
    candidate: Any,
    block_size: int = 16,
) -> bool:
    """One oracle query: does the victim's cell start with ``candidate``?

    ``insert_row(value) -> row_id`` is the attacker's legitimate write
    path.  The attacker never reads plaintext — only compares stored
    bytes through the storage view.
    """
    probe_row = insert_row(candidate)
    probe = comparable_ciphertext(storage.cell(table, probe_row, column))
    target = comparable_ciphertext(storage.cell(table, victim_row, column))
    db.delete_row(table, probe_row)  # tidy up the probe
    return probe[:block_size] == target[:block_size]


def dictionary_attack(
    db: EncryptedDatabase,
    storage: StorageView,
    table: str,
    column: int,
    insert_row: Callable[[Any], int],
    victim_rows: Sequence[int],
    dictionary: Sequence[Any],
    block_size: int = 16,
) -> list[ConfirmedGuess]:
    """Probe every candidate once, then read off all victims.

    One insert per dictionary word suffices for *all* victim rows: the
    attacker indexes victims' first blocks by value.  Cost: |dictionary|
    inserts + |dictionary| + |victims| storage reads.
    """
    probe_blocks: dict[bytes, Any] = {}
    for candidate in dictionary:
        probe_row = insert_row(candidate)
        block = comparable_ciphertext(
            storage.cell(table, probe_row, column)
        )[:block_size]
        probe_blocks[block] = candidate
        db.delete_row(table, probe_row)

    confirmed = []
    for victim in victim_rows:
        block = comparable_ciphertext(
            storage.cell(table, victim, column)
        )[:block_size]
        if block in probe_blocks:
            confirmed.append(ConfirmedGuess(victim, probe_blocks[block]))
    return confirmed


def evaluate_chosen_plaintext(
    db: EncryptedDatabase,
    storage: StorageView,
    table: str,
    column: int,
    insert_row: Callable[[Any], int],
    victims: dict[int, Any],
    dictionary: Sequence[Any],
    scheme: str,
    block_size: int = 16,
) -> AttackOutcome:
    """Score the dictionary attack against ground truth ``victims``."""
    confirmed = dictionary_attack(
        db, storage, table, column, insert_row, list(victims), dictionary,
        block_size,
    )
    correct = sum(
        1 for guess in confirmed if victims.get(guess.victim_row) == guess.value
    )
    wrong = len(confirmed) - correct
    rate = correct / len(victims) if victims else 0.0
    return AttackOutcome(
        attack="chosen-plaintext-dictionary",
        scheme=scheme,
        succeeded=correct > 0,
        detail=(
            f"{correct}/{len(victims)} victims confirmed "
            f"({wrong} false confirmations) with {len(dictionary)} probes"
        ),
        metrics={
            "victims": len(victims),
            "confirmed": correct,
            "false_confirmations": wrong,
            "rate": rate,
            "probes": len(dictionary),
        },
    )
