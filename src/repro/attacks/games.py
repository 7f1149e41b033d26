"""Empirical security games (paper Sect. 4, Security Analysis / Proofs).

The paper argues the fixed schemes inherit the AEAD's provable
IND$-CPA privacy and INT-CTXT authenticity.  We cannot re-prove theorems
empirically, but we can run the corresponding *games* as statistical
sanity checks and — more importantly — show the broken schemes lose them
with advantage ≈ 1:

* :func:`equality_distinguisher_game` — a left-or-right game whose
  adversary uses the only generic deterministic-encryption strategy:
  spot repeated ciphertexts.  Deterministic schemes lose with advantage
  1; nonce-based schemes reduce the adversary to coin flipping.
* :func:`tamper_game` — an INT-CTXT-style game: the adversary mutates
  stored bytes every way the Sect. 3 attacks do (bit flips, block swaps
  across cells, truncation) and wins if any mutation is accepted as a
  *different* valid plaintext.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attacks.adversary import AttackOutcome
from repro.aead.base import comparable_ciphertext
from repro.core.encrypted_db import EncryptedDatabase, EncryptionConfig
from repro.primitives.util import common_prefix_blocks
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.errors import CryptoError
from repro.primitives.rng import DeterministicRandom, RandomSource
from repro.workloads.generators import ascii_string

_GAME_SCHEMA = TableSchema(
    "game", [Column("value", ColumnType.TEXT)]
)


def _fresh_db(
    config: EncryptionConfig, master_key: bytes, rng: RandomSource
) -> EncryptedDatabase:
    db = EncryptedDatabase(master_key, config, rng=rng)
    db.create_table(_GAME_SCHEMA)
    return db


@dataclass
class GameResult:
    trials: int
    wins: int

    @property
    def advantage(self) -> float:
        """|2·Pr[win] − 1| — the distinguishing advantage."""
        if self.trials == 0:
            return 0.0
        return abs(2 * self.wins / self.trials - 1)


def equality_distinguisher_game(
    config: EncryptionConfig,
    trials: int = 64,
    seed: str = "lr-game",
    value_blocks: int = 2,
) -> GameResult:
    """Left-or-right indistinguishability with an equality adversary.

    Per trial the challenger flips b, inserts m_b twice (two rows), and
    the adversary answers b=0 ("same message") iff the two stored
    ciphertexts are equal.  Under eq. (3)-style determinism this is
    always right; under the fix both cases look identical and the
    adversary is reduced to guessing.
    """
    rng = DeterministicRandom(seed)
    wins = 0
    for trial in range(trials):
        trial_rng = rng.fork(f"trial-{trial}")
        m0 = ascii_string(trial_rng, value_blocks * 16)
        m1 = ascii_string(trial_rng, value_blocks * 16)
        b = trial_rng.randint(2)
        db = _fresh_db(config, trial_rng.bytes(32), trial_rng.fork("db"))
        # b=0: same message twice; b=1: two different messages.
        first, second = (m0, m0) if b == 0 else (m0, m1)
        row_a = db.insert("game", [first])
        row_b = db.insert("game", [second])
        storage = db.storage_view()
        # The generic deterministic-encryption adversary: equal plaintexts
        # leave equal ciphertext *prefixes* even when a per-address tail
        # (µ) differs.  Framing is public, so it compares the ciphertext
        # component (cf. aead.base.comparable_ciphertext).
        ct_a = comparable_ciphertext(storage.cell("game", row_a, 0))
        ct_b = comparable_ciphertext(storage.cell("game", row_b, 0))
        guess = 0 if common_prefix_blocks(ct_a, ct_b, 16) >= 1 else 1
        if guess == b:
            wins += 1
    return GameResult(trials, wins)


def _mutations(stored: bytes, other: bytes, rng: RandomSource):
    """The tampering repertoire of Sect. 3, applied blindly."""
    if stored:
        position = rng.randint(len(stored))
        flipped = bytearray(stored)
        flipped[position] ^= 1 + rng.randint(255)
        yield bytes(flipped)
        yield stored[:-1]                       # truncation
        yield stored[16:] if len(stored) > 16 else stored + b"\x00"
    yield other                                 # wholesale substitution
    if len(stored) >= 32 and len(other) >= 32:
        yield other[:16] + stored[16:]          # cross-cell block splice


def tamper_game(
    config: EncryptionConfig,
    trials: int = 32,
    mutations_per_trial: int = 5,
    seed: str = "tamper-game",
    value_blocks: int = 3,
) -> AttackOutcome:
    """INT-CTXT-style game over the whole cell pipeline.

    A win is any mutation that decrypts without error to a value
    different from the original (existential forgery) *or* relocates
    another cell's value undetected (substitution).
    """
    rng = DeterministicRandom(seed)
    attempts = 0
    accepted = 0
    for trial in range(trials):
        trial_rng = rng.fork(f"trial-{trial}")
        db = _fresh_db(config, trial_rng.bytes(32), trial_rng.fork("db"))
        value_a = ascii_string(trial_rng, value_blocks * 16)
        value_b = ascii_string(trial_rng, value_blocks * 16)
        row_a = db.insert("game", [value_a])
        row_b = db.insert("game", [value_b])
        storage = db.storage_view()
        plain_a = db.get_cell_plaintext("game", row_a, "value")
        stored_a = storage.cell("game", row_a, 0)
        stored_b = storage.cell("game", row_b, 0)
        count = 0
        for mutated in _mutations(stored_a, stored_b, trial_rng):
            if count >= mutations_per_trial:
                break
            count += 1
            attempts += 1
            storage.set_cell("game", row_a, 0, mutated)
            try:
                read_back = db.get_cell_plaintext("game", row_a, "value")
                if read_back != plain_a:
                    accepted += 1
            except CryptoError:
                pass
            finally:
                storage.set_cell("game", row_a, 0, stored_a)
    rate = accepted / attempts if attempts else 0.0
    return AttackOutcome(
        attack="tamper-game",
        scheme=f"{config.cell_scheme}",
        succeeded=accepted > 0,
        detail=f"{accepted}/{attempts} blind mutations accepted",
        metrics={"attempts": attempts, "accepted": accepted, "rate": rate},
    )
