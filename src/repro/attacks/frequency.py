"""Frequency analysis against deterministic cell encryption.

An extension of the paper's pattern-matching analysis: under eq. (3)'s
determinism, equal plaintexts give equal ciphertexts *anywhere in the
column*, so the ciphertext histogram equals the plaintext histogram.
Given any public estimate of the value distribution (a census list, a
diagnosis prevalence table), the adversary matches ranks: the most
frequent ciphertext is the most frequent value, and so on — recovering
most cells outright, with zero key material.

This is the strongest generic consequence of deterministic encryption
and the reason the paper's fix demands ciphertexts "indistinguishable
from random" rather than merely collision-free (Sect. 4, Requirements).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.attacks.adversary import AttackOutcome
from repro.aead.base import comparable_ciphertext
from repro.core.encrypted_db import StorageView


@dataclass(frozen=True)
class FrequencyGuess:
    """The adversary's claim: this stored ciphertext encrypts ``value``."""

    ciphertext: bytes
    value: bytes
    ciphertext_count: int
    value_count: int


def _comparable_prefix(stored: bytes, value_blocks: int | None, block_size: int) -> bytes:
    ciphertext = comparable_ciphertext(stored)
    if value_blocks is None:
        return ciphertext
    return ciphertext[: value_blocks * block_size]


def ciphertext_histogram(
    storage: StorageView,
    table: str,
    column: int,
    value_blocks: int | None = None,
    block_size: int = 16,
) -> Counter:
    """Histogram of (comparable) stored cell bytes — keyless.

    Under the Append-Scheme the per-cell µ suffix differs across rows,
    so the adversary histograms only the leading ``value_blocks`` blocks
    (derivable from the public schema: the blocks fully covered by V).
    """
    return Counter(
        _comparable_prefix(stored, value_blocks, block_size)
        for _, stored in storage.cells(table, column)
    )


def rank_match(
    storage: StorageView,
    table: str,
    column: int,
    known_distribution: dict[bytes, int],
    value_blocks: int | None = None,
) -> list[FrequencyGuess]:
    """Match ciphertext ranks against a known plaintext distribution.

    ``known_distribution`` maps candidate plaintext encodings to their
    (estimated) counts — auxiliary knowledge the adversary brings.
    Returns one guess per distinct ciphertext, most frequent first.
    Ties are broken by byte order on both sides, which keeps the attack
    deterministic (and slightly pessimistic for the adversary).
    """
    ct_ranked = sorted(
        ciphertext_histogram(storage, table, column, value_blocks).items(),
        key=lambda item: (-item[1], item[0]),
    )
    pt_ranked = sorted(
        known_distribution.items(), key=lambda item: (-item[1], item[0])
    )
    guesses = []
    for (ciphertext, ct_count), (value, pt_count) in zip(ct_ranked, pt_ranked):
        guesses.append(FrequencyGuess(ciphertext, value, ct_count, pt_count))
    return guesses


def evaluate_frequency_attack(
    storage: StorageView,
    table: str,
    column: int,
    true_values: dict[int, bytes],
    scheme: str,
    value_blocks: int | None = None,
) -> AttackOutcome:
    """Score rank matching against ground truth.

    ``true_values`` maps row id → plaintext cell encoding (known to the
    experiment).  The auxiliary distribution handed to the adversary is
    the *exact* plaintext histogram — the best case for the attack, and
    realistic whenever the column's distribution is public knowledge.
    """
    distribution = Counter(true_values.values())
    guesses = rank_match(storage, table, column, dict(distribution), value_blocks)
    guess_by_ct = {g.ciphertext: g.value for g in guesses}

    total = 0
    correct = 0
    for row_id, stored in storage.cells(table, column):
        total += 1
        guessed = guess_by_ct.get(_comparable_prefix(stored, value_blocks, 16))
        if guessed is not None and guessed == true_values.get(row_id):
            correct += 1
    rate = correct / total if total else 0.0
    return AttackOutcome(
        attack="frequency-analysis",
        scheme=scheme,
        succeeded=rate > 0.5,
        detail=f"{correct}/{total} cells recovered by rank matching",
        metrics={
            "cells": total,
            "recovered": correct,
            "recovery_rate": rate,
            "distinct_ciphertexts": len(guess_by_ct),
        },
    )
