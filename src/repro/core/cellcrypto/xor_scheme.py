"""The XOR-Scheme of [3] (paper eq. 1): ``C = E_k(V ⊕ µ(t,r,c))``.

The address checksum is XORed over (the first µ-size bytes of) the
value; per the paper's notation, if V is shorter than µ it is implicitly
zero-extended — meaning short values decrypt back zero-extended, one of
the scheme's many sharp edges.

There is no cryptographic integrity: decryption "verifies" only through
whatever redundancy the column's data type has (the optional
``validator``).  Sect. 3.1 breaks exactly this: for single-block ASCII
values, a partial second preimage of µ on the octet high bits lets an
adversary relocate a ciphertext to a different cell and still pass the
redundancy check.
"""

from __future__ import annotations

from repro.core.address import Mu, default_mu
from repro.core.cellcrypto.base import CellScheme, Validator, no_validator
from repro.engine.table import CellAddress
from repro.errors import DecryptionError
from repro.modes.base import CipherMode
from repro.primitives.util import xor_bytes


class XorScheme(CellScheme):
    """Cell encryption by address-XOR-then-encrypt (eq. 1)."""

    name = "xor-scheme"

    def __init__(
        self,
        mode: CipherMode,
        mu: Mu | None = None,
        validator: Validator = no_validator,
    ) -> None:
        self._mode = mode
        self._mu = mu if mu is not None else default_mu()
        self._validator = validator
        self.deterministic = mode.deterministic

    @property
    def mu(self) -> Mu:
        return self._mu

    @property
    def mode(self) -> CipherMode:
        return self._mode

    def encode_cell(self, plaintext: bytes, address: CellAddress) -> bytes:
        masked = xor_bytes(plaintext, self._mu(address))
        return self._mode.encrypt(masked)

    def decode_cell(self, stored: bytes, address: CellAddress) -> bytes:
        masked = self._mode.decrypt(stored)
        plaintext = xor_bytes(masked, self._mu(address))
        if not self._validator(plaintext):
            raise DecryptionError(
                "XOR-scheme redundancy check failed "
                f"at {address!r} (data looks invalid)"
            )
        return plaintext
