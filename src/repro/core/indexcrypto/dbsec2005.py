"""The improved index encryption scheme of [12] (paper §2.4, eqs. 6–7).

An index entry (V_trc, Ref_I, Ref_T) is stored as the quadruple

    ( Ẽ_k(V_trc),  Ref_I,  E'_k(Ref_T),  MAC_k(V_trc ∥ Ref_I ∥ Ref_T ∥ Ref_S) )

with the nondeterministic encryption Ẽ_k(x) := E_k(x ∥ a) for a
fixed-size random a (eq. 6), an "ordinary" (deterministic) E', and a
message authentication code.  Ref_I lives in the clear in the index
structure; this codec stores the remaining three components.

Two deliberate reproduction knobs:

* ``shared_key_mac`` (paper's pathology): [12] uses *the same key k* for
  encryption and MAC.  With zero-IV CBC encryption and a CBC-MAC variant
  (OMAC), the MAC's internal chaining values coincide with ciphertext
  blocks, enabling the Sect. 3.3 forgery (attack E7).  Supplying an
  independently-keyed MAC is the ablation that kills that one attack.
* ``faithful_leaf_bug`` (paper's footnote 1): the published query
  pseudo-code "fails to [check integrity] on the leaf-level, both for
  finding the right starting place for the answer, and for generating
  the answer from the list of right-sibling references".  When True,
  ``decode_for_query`` skips MAC verification at leaves, reproducing the
  bug; inner-node verification always happens, as in the paper.

Even with everything verified, Sect. 3.3's pattern-matching attack
stands: appending randomness at the *end* leaves all full blocks of V
before it deterministically encrypted (attack E6).
"""

from __future__ import annotations

import struct

from repro.engine.codec import EntryRefs, IndexEntryCodec
from repro.errors import AuthenticationError
from repro.mac.base import MAC
from repro.modes.base import CipherMode
from repro.primitives.rng import RandomSource

_ROW_WIDTH = 8


class DBSec2005IndexCodec(IndexEntryCodec):
    """The [12] entry format: (Ẽ(V), E'(Ref_T), MAC(...))."""

    name = "dbsec2005"

    def __init__(
        self,
        mode: CipherMode,
        mac: MAC,
        rng: RandomSource,
        randomness_size: int = 8,
        faithful_leaf_bug: bool = True,
    ) -> None:
        if randomness_size < 1:
            raise ValueError("the random suffix a must be non-empty")
        self._mode = mode
        self._mac = mac
        self._rng = rng
        self._a_size = randomness_size
        self.faithful_leaf_bug = faithful_leaf_bug

    @property
    def mode(self) -> CipherMode:
        return self._mode

    @property
    def mac(self) -> MAC:
        return self._mac

    @property
    def randomness_size(self) -> int:
        return self._a_size

    # -- the MAC input of eq. (7) ------------------------------------------------

    def mac_message(
        self, key: bytes, table_row: int, refs: EntryRefs
    ) -> bytes:
        """V_trc ∥ Ref_I ∥ Ref_T ∥ Ref_S, byte-encoded.

        V_trc comes first — the detail the Sect. 3.3 interaction attack
        needs, because the MAC's first blocks then coincide with the
        encryption's first plaintext blocks.
        """
        ref_s = struct.pack(">qq", refs.index_table, refs.row_id)
        return (
            key
            + refs.encode_internal()
            + table_row.to_bytes(_ROW_WIDTH, "big")
            + ref_s
        )

    # -- codec interface ---------------------------------------------------------

    def encode(self, key: bytes, table_row: int | None, refs: EntryRefs) -> bytes:
        if table_row is None:
            raise ValueError(
                "[12] entries are (V, Ref_I, Ref_T) triples; Ref_T is required"
            )
        randomness = self._rng.bytes(self._a_size)
        value_ct = self._mode.encrypt(key + randomness)      # Ẽ_k(V) = E_k(V ∥ a)
        row_ct = self._mode.encrypt(table_row.to_bytes(_ROW_WIDTH, "big"))
        tag = self._mac.tag(self.mac_message(key, table_row, refs))
        return b"".join(
            struct.pack(">I", len(part)) + part for part in (value_ct, row_ct, tag)
        )

    def split_payload(self, payload: bytes) -> tuple[bytes, bytes, bytes]:
        """Parse the stored triple (Ẽ(V), E'(Ref_T), tag) — also used by
        the attack code, which manipulates components individually."""
        parts = []
        offset = 0
        for _ in range(3):
            if offset + 4 > len(payload):
                raise AuthenticationError("truncated index entry")
            (length,) = struct.unpack_from(">I", payload, offset)
            offset += 4
            if offset + length > len(payload):
                raise AuthenticationError("truncated index entry")
            parts.append(payload[offset:offset + length])
            offset += length
        if offset != len(payload):
            raise AuthenticationError("trailing bytes in index entry")
        return parts[0], parts[1], parts[2]

    def join_payload(self, value_ct: bytes, row_ct: bytes, tag: bytes) -> bytes:
        """Inverse of :meth:`split_payload` (for the attack code)."""
        return b"".join(
            struct.pack(">I", len(part)) + part for part in (value_ct, row_ct, tag)
        )

    def _decode(self, payload: bytes, refs: EntryRefs, verify: bool) -> tuple[bytes, int | None]:
        value_ct, row_ct, tag = self.split_payload(payload)
        padded = self._mode.decrypt(value_ct)
        if len(padded) < self._a_size:
            raise AuthenticationError("value ciphertext too short")
        key = padded[: -self._a_size]           # strip the random suffix a
        row_plain = self._mode.decrypt(row_ct)
        if len(row_plain) != _ROW_WIDTH:
            raise AuthenticationError("table reference has wrong length")
        table_row = int.from_bytes(row_plain, "big")
        if verify and not self._mac.verify(
            self.mac_message(key, table_row, refs), tag
        ):
            raise AuthenticationError(
                f"index entry MAC failed at r_I={refs.row_id}"
            )
        return key, table_row

    def decode(self, payload: bytes, refs: EntryRefs) -> tuple[bytes, int | None]:
        return self._decode(payload, refs, verify=True)

    def verifies_at_query(self, at_leaf: bool) -> bool:
        # Footnote 1: the published pseudo-code checks inner nodes during
        # the tree-walk but forgets the leaf level.  "Both bugs can be
        # easily fixed" — set faithful_leaf_bug=False for the fixed code.
        return not (at_leaf and self.faithful_leaf_bug)

    def decode_for_query(
        self, payload: bytes, refs: EntryRefs, at_leaf: bool
    ) -> tuple[bytes, int | None]:
        return self._decode(payload, refs, verify=self.verifies_at_query(at_leaf))
