"""Nonce misuse: why the fix's security rests on nonce uniqueness.

Sect. 4 requires "a unique nonce N is generated" per encryption.  These
tests show what breaks when that contract is violated — feeding the
deliberately-broken RepeatingNonceSource into the fixed cell scheme
restores exactly the deterministic-encryption leaks the paper attacks —
and that SIV (deterministic by design) degrades gracefully instead.

The last test reads stored views, keylessly, for nonces that repeat
under one key.  A load restarts every nonce counter, so the views that
went through a load path repeat nonces today; those cases are strict
xfails, so the fix must flip them.
"""

from collections import Counter

import pytest

from repro.aead.base import StoredEntry
from repro.aead.eax import EAX
from repro.aead.siv import SIV
from repro.core.cellcrypto import AeadCellScheme
from repro.core.encrypted_db import EncryptedDatabase, EncryptionConfig
from repro.durability.manager import DurableDatabase
from repro.durability.vdisk import MemoryDisk
from repro.durability.wal import journal_mac
from repro.engine.storage import dump_database, load_database
from repro.engine.table import CellAddress
from repro.primitives.aes import AES
from repro.primitives.rng import CountingNonceSource, RepeatingNonceSource
from repro.robustness.campaign import _CAMPAIGN_MASTER_KEY, build_campaign_db

KEY = bytes(range(16))
A = CellAddress(1, 1, 0)
B = CellAddress(1, 2, 0)


def test_unique_nonces_randomise_equal_plaintexts():
    scheme = AeadCellScheme(EAX(AES(KEY)), CountingNonceSource(16))
    assert scheme.encode_cell(b"same value", A) != scheme.encode_cell(b"same value", A)


def test_repeated_nonce_restores_equality_leak():
    """With a constant nonce, CTR-based AEADs become deterministic per
    (plaintext, header): the eq. (3) determinism the paper attacks."""
    scheme = AeadCellScheme(EAX(AES(KEY)), RepeatingNonceSource(bytes(16)))
    first = scheme.encode_cell(b"same value", A)
    second = scheme.encode_cell(b"same value", A)
    assert first == second  # the LR-game adversary wins again


def test_repeated_nonce_leaks_keystream_xor():
    """Worse than equality: same nonce ⇒ same CTR keystream, so
    C ⊕ C' = P ⊕ P' across different plaintexts at the same address."""
    from repro.aead.base import StoredEntry
    from repro.primitives.util import xor_bytes_strict

    scheme = AeadCellScheme(EAX(AES(KEY)), RepeatingNonceSource(bytes(16)))
    p1, p2 = b"first plaintext!", b"second plaintxt!"
    c1 = StoredEntry.from_bytes(scheme.encode_cell(p1, A)).ciphertext
    c2 = StoredEntry.from_bytes(scheme.encode_cell(p2, A)).ciphertext
    assert xor_bytes_strict(c1, c2) == xor_bytes_strict(p1, p2)


def test_repeated_nonce_still_authenticated():
    """Nonce misuse kills privacy, not integrity: tampering still fails."""
    from repro.errors import AuthenticationError

    scheme = AeadCellScheme(EAX(AES(KEY)), RepeatingNonceSource(bytes(16)))
    stored = scheme.encode_cell(b"value", A)
    assert scheme.decode_cell(stored, A) == b"value"
    with pytest.raises(AuthenticationError):
        scheme.decode_cell(stored, B)


def test_siv_is_the_graceful_deterministic_option():
    """SIV under 'nonce misuse' (no nonce at all) leaks only exact
    duplicates — never the keystream XOR of different plaintexts."""
    from repro.aead.base import StoredEntry
    from repro.primitives.util import xor_bytes_strict

    siv = SIV(AES(KEY), AES(bytes(range(16, 32))))
    scheme = AeadCellScheme(siv, RepeatingNonceSource(b""))
    p1, p2 = b"first plaintext!", b"second plaintxt!"
    c1 = StoredEntry.from_bytes(scheme.encode_cell(p1, A)).ciphertext
    c2 = StoredEntry.from_bytes(scheme.encode_cell(p2, A)).ciphertext
    assert xor_bytes_strict(c1, c2) != xor_bytes_strict(p1, p2)
    # Equal plaintexts at the same address do repeat (the known SIV leak)...
    assert scheme.encode_cell(p1, A) == scheme.encode_cell(p1, A)
    # ...but the same value at a *different address* does not (the AD
    # feeds S2V), so cross-cell pattern matching still fails.
    assert (
        StoredEntry.from_bytes(scheme.encode_cell(p1, A)).ciphertext
        != StoredEntry.from_bytes(scheme.encode_cell(p1, B)).ciphertext
    )


# -- stored views: no nonce repeats under one key -----------------------------

EAX_CONFIG = EncryptionConfig.paper_fixed("eax")


def _codecs():
    enc = EncryptedDatabase(_CAMPAIGN_MASTER_KEY, EAX_CONFIG)
    return enc, {
        "cell_codec": enc.cell_codec,
        "index_codec_factory": enc._build_index_codec,
    }


def _campaign_rows(first, last):
    db = build_campaign_db(EAX_CONFIG, last)
    return [row for row_id, row in db.scan("records") if row_id >= first]


def _fresh_8():
    return build_campaign_db(EAX_CONFIG, 8)


def _campaign_40():
    return build_campaign_db(EAX_CONFIG, 40)


def _loaded_8_then_3():
    _, codecs = _codecs()
    db = load_database(dump_database(_fresh_8()), **codecs)
    for row in _campaign_rows(8, 11):
        db.insert("records", row)
    return db


def _remounted_8_then_3():
    disk = MemoryDisk()
    enc, codecs = _codecs()
    manager = DurableDatabase.open(disk, journal_mac(enc.keys), **codecs)
    source = _fresh_8()
    manager.create_table(source.table("records").schema)
    for _, row in source.scan("records"):
        manager.insert("records", row)
    for name in source.index_names:
        info = source.index(name)
        manager.create_index(name, info.table, info.column, kind=info.kind)
    manager.checkpoint()
    enc, codecs = _codecs()
    remounted = DurableDatabase.open(
        MemoryDisk(disk.durable_state()), journal_mac(enc.keys), **codecs
    )
    for row in _campaign_rows(8, 11):
        remounted.insert("records", row)
    return remounted.database


def _sharing_a_nonce(payloads):
    """How many payloads carry a nonce another payload also carries."""
    nonces = [StoredEntry.from_bytes(payload).nonce for payload in payloads]
    seen = Counter(nonces)
    return sum(1 for nonce in nonces if seen[nonce] > 1)


def _repeat(reason):
    return pytest.mark.xfail(
        raises=AssertionError, strict=True, reason="nonces repeat: " + reason
    )


@pytest.mark.parametrize("build", [
    pytest.param(_fresh_8, id="fresh-8"),
    pytest.param(_campaign_40, id="campaign-40", marks=_repeat(
        "16 of 127 index entries share one"
    )),
    pytest.param(_loaded_8_then_3, id="load_database-8+3", marks=_repeat(
        "18 of 33 cells and 21 of 33 index entries share one"
    )),
    pytest.param(_remounted_8_then_3, id="DurableDatabase.open-8+3", marks=_repeat(
        "18 of 33 cells and 21 of 33 index entries share one"
    )),
])
def test_no_stored_nonce_repeats_under_one_key(build):
    db = build()
    table = db.table("records")
    sensitive = [
        pos for pos, column in enumerate(table.schema.columns) if column.sensitive
    ]
    cells = [row[pos] for _, row in table.scan() for pos in sensitive]
    # Every index codec encrypts under keys.index_key(): one pool.
    entries = [
        entry.payload
        for name in db.index_names
        for _, entry in db.index(name).structure.entries()
    ]
    assert (_sharing_a_nonce(cells), _sharing_a_nonce(entries)) == (0, 0)
