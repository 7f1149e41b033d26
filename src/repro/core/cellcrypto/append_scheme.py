"""The Append-Scheme of [3] (paper eq. 2): ``C = E_k(V ∥ µ(t,r,c))``.

Used "whenever there is not enough redundancy in the allowed type of
data for the specific column": the appended address checksum is the
redundancy, and decryption accepts iff the checksum blocks come back
intact at the expected position.

Sect. 3.1 defeats both of its goals when E is zero-IV CBC:

* equal plaintext prefixes leak block-for-block (pattern matching), and
* CBC's local error propagation means ciphertext blocks that precede the
  block *before* the checksum blocks can be modified freely — the
  checksum still verifies, an existential forgery (attack E2).
"""

from __future__ import annotations

from repro.core.address import Mu, default_mu
from repro.core.cellcrypto.base import CellScheme
from repro.engine.table import CellAddress
from repro.errors import AuthenticationError
from repro.modes.base import CipherMode
from repro.primitives.util import constant_time_equal


class AppendScheme(CellScheme):
    """Cell encryption by append-address-then-encrypt (eq. 2)."""

    name = "append-scheme"

    def __init__(self, mode: CipherMode, mu: Mu | None = None) -> None:
        self._mode = mode
        self._mu = mu if mu is not None else default_mu()
        self.deterministic = mode.deterministic

    @property
    def mu(self) -> Mu:
        return self._mu

    @property
    def mode(self) -> CipherMode:
        return self._mode

    def encode_cell(self, plaintext: bytes, address: CellAddress) -> bytes:
        return self._mode.encrypt(plaintext + self._mu(address))

    def decode_cell(self, stored: bytes, address: CellAddress) -> bytes:
        padded = self._mode.decrypt(stored)
        if len(padded) < self._mu.size:
            raise AuthenticationError("ciphertext too short for address checksum")
        value, checksum = padded[: -self._mu.size], padded[-self._mu.size:]
        if not constant_time_equal(checksum, self._mu(address)):
            raise AuthenticationError(
                f"address checksum mismatch at {address!r}"
            )
        return value
