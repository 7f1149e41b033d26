"""Rotation must keep writing the same bytes, from either caller.

Two pins per campaign configuration:

* ``rotate_master_key`` over the 8-row campaign database: the SHA-256
  of the rotated storage image;
* a two-shard ``ShardedKeyspace.rotate`` over four rows: the SHA-256 of
  every durable file the rotation leaves on the disk, in name order.

The hashes were captured before the two rotations shared one
re-encryption walk.  A mismatch means a rotation changed a stored byte —
a nonce or IV drawn in another order, a payload left under the old key —
a regression, not a refresh.
"""

import hashlib

import pytest

from repro.core.rotation import rotate_master_key
from repro.engine.storage import dump_database
from repro.robustness.campaign import build_campaign_db, default_campaign_configs
from repro.sharding.campaign import _final_rotated_disk

NEW_KEY = b"rotation-golden-master-key-01234"

ROTATED_IMAGE_SHA256 = {
    "plaintext baseline": (
        "5558ac16be6184af19bd5b587f62fd8686c3e050ecbde5edea8f161920a2aca2"
    ),
    "[3] XOR-Scheme": (
        "355ad977fe04a0344b51342431302ea59adfdf3384a95beb3de1b59b32991a36"
    ),
    "[3] Append-Scheme": (
        "d8c3994e9eaa203a2b102961750fa2051035747461f0fdfc403d5231fad76912"
    ),
    "[12] index (+append cells)": (
        "cba49efb64ddbe65ea5222d1f4f1654d51d7803d5e7bc31412806d382b92395c"
    ),
    "fixed AEAD (EAX)": (
        "502f16262de1a0f602de7214734ec2a9b0b81af7a7eace7b788879175afb24c7"
    ),
    "fixed AEAD (OCB)": (
        "6f819ce0155ca75dba1317dabd222d13b66cb2ce6ec1ce2bd3f6c3ef887c3bec"
    ),
}

ROTATED_SHARD_DISK_SHA256 = {
    "plaintext baseline": (
        "947ceb6bc7d1558579015e4d58450950319335546d6325a0ebd1813d45d5d81b"
    ),
    "[3] XOR-Scheme": (
        "cb01e15d679990c6d7b256be516e9dfb8bd88f8deb0c9f49776e4c150095a267"
    ),
    "[3] Append-Scheme": (
        "0a590a5b54dad72e1f1f545d831e696f344a58fb52c40e77ee9858d0a588a014"
    ),
    "[12] index (+append cells)": (
        "c972ff681c500d95ae44f4cb0039d8a3b0c2e3201d44a33bd3af041f86f023b6"
    ),
    "fixed AEAD (EAX)": (
        "4bb7ae8f1ecca0c4f15eb39c71d58db42260ac725c9281dd5f263a782bfa33bf"
    ),
    "fixed AEAD (OCB)": (
        "1f4a5b21bde4bf9489b7acec57c8470d365781d647ae6a1a055412a3a5fa4141"
    ),
}

CONFIGS = default_campaign_configs()
IDS = [label for label, _ in CONFIGS]


def _disk_digest(state: dict[str, bytes]) -> str:
    digest = hashlib.sha256()
    for name, data in sorted(state.items()):
        for part in (name.encode("utf-8"), data):
            digest.update(len(part).to_bytes(8, "big"))
            digest.update(part)
    return digest.hexdigest()


@pytest.mark.parametrize("label, config", CONFIGS, ids=IDS)
def test_rotate_master_key_image_is_pinned(label, config):
    db = build_campaign_db(config, 8)
    rotate_master_key(db, NEW_KEY)
    digest = hashlib.sha256(dump_database(db)).hexdigest()
    assert digest == ROTATED_IMAGE_SHA256[label]


@pytest.mark.parametrize("label, config", CONFIGS, ids=IDS)
def test_sharded_rotation_disk_is_pinned(label, config):
    digest = _disk_digest(_final_rotated_disk(config, 4, 2))
    assert digest == ROTATED_SHARD_DISK_SHA256[label]
