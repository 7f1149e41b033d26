"""Mode-of-operation interfaces and IV policies.

The paper's attacks hinge on *how the IV is chosen*: [3] explicitly
assumes E is deterministic (eq. 3), and Kühn instantiates this with CBC
under a constant all-zero IV (Sect. 3, eqs. 8–9).  We therefore make the
IV policy a first-class, swappable object so that the same CBC code can
be run as the paper's insecure counter-example (``ZeroIV``) or in the
conventional randomised form (``RandomIV``) for the ablation benches.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.errors import BlockSizeError, NonceError
from repro.observability.metrics import REGISTRY as _METRICS
from repro.observability.trace import TRACER as _TRACER
from repro.primitives.blockcipher import BlockCipher
from repro.primitives.padding import PKCS7, PaddingScheme
from repro.primitives.rng import RandomSource


class IVPolicy(ABC):
    """Strategy producing the initialisation vector for each message."""

    #: True when every message gets the same IV, making the mode a
    #: deterministic function of the plaintext — the property eq. (3)
    #: demands and Sect. 3 exploits.
    deterministic: bool

    @abstractmethod
    def generate(self, block_size: int) -> bytes:
        """Return the IV to use for the next message."""


class ZeroIV(IVPolicy):
    """The paper's counter-example policy: IV = (0, ..., 0) always."""

    deterministic = True

    def generate(self, block_size: int) -> bytes:
        return bytes(block_size)


class FixedIV(IVPolicy):
    """A constant (possibly secret) IV — equally deterministic."""

    deterministic = True

    def __init__(self, iv: bytes) -> None:
        self._iv = bytes(iv)

    def generate(self, block_size: int) -> bytes:
        if len(self._iv) != block_size:
            raise NonceError(
                f"fixed IV has {len(self._iv)} bytes, cipher block is {block_size}"
            )
        return self._iv


class RandomIV(IVPolicy):
    """Fresh random IV per message (the conventional secure choice)."""

    deterministic = False

    def __init__(self, rng: RandomSource) -> None:
        self._rng = rng

    def generate(self, block_size: int) -> bytes:
        return self._rng.bytes(block_size)


class CounterIV(IVPolicy):
    """Unique-but-predictable IVs from a counter.

    Non-repeating (so pattern matching across messages fails) but
    predictable, which is known to be insufficient against adaptive
    chosen-plaintext attacks on CBC; included for ablations.
    """

    deterministic = False

    def __init__(self, start: int = 0) -> None:
        self._next = start

    def generate(self, block_size: int) -> bytes:
        value = self._next
        self._next += 1
        return value.to_bytes(block_size, "big")


class CipherMode(ABC):
    """A complete encryption transform built over a block cipher.

    This is the object the paper calls ``E_k(.)``: it accepts messages of
    any length, applies padding, runs the block cipher in some chaining
    mode, and (when the IV policy is non-deterministic) transports the IV
    by prefixing it to the ciphertext.
    """

    name: str

    def __init__(
        self,
        cipher: BlockCipher,
        iv_policy: IVPolicy | None = None,
        padding: PaddingScheme = PKCS7,
        embed_iv: bool | None = None,
    ) -> None:
        self._cipher = cipher
        self._iv_policy = iv_policy if iv_policy is not None else ZeroIV()
        self._padding = padding
        # Deterministic IVs are implicit (both sides know them); random or
        # counter IVs must travel with the ciphertext unless told otherwise.
        if embed_iv is None:
            embed_iv = not self._iv_policy.deterministic
        self._embed_iv = embed_iv

    @property
    def block_size(self) -> int:
        return self._cipher.block_size

    @property
    def cipher(self) -> BlockCipher:
        return self._cipher

    @property
    def deterministic(self) -> bool:
        """True when equal plaintexts always give equal ciphertexts."""
        return self._iv_policy.deterministic

    # -- message-level API --------------------------------------------------

    def encrypt(self, plaintext: bytes) -> bytes:
        """Pad and encrypt an arbitrary-length message."""
        if _METRICS.enabled:
            _METRICS.counter(f"mode.{self.name}.encrypts").inc()
            _METRICS.histogram(f"mode.{self.name}.plaintext_bytes").observe(
                len(plaintext)
            )
        iv = self._iv_policy.generate(self.block_size)
        padded = self._padding.pad(plaintext, self.block_size)
        if _TRACER.enabled:
            # Every mode here costs one blockcipher call per padded block.
            _TRACER.add_cost("cipher_calls_predicted", len(padded) // self.block_size)
        body = self.encrypt_blocks(padded, iv)
        return (iv + body) if self._embed_iv else body

    def decrypt(self, ciphertext: bytes) -> bytes:
        """Decrypt and unpad a message produced by :meth:`encrypt`."""
        if _METRICS.enabled:
            _METRICS.counter(f"mode.{self.name}.decrypts").inc()
        if self._embed_iv:
            if len(ciphertext) < self.block_size:
                raise BlockSizeError("ciphertext shorter than embedded IV")
            iv, body = ciphertext[:self.block_size], ciphertext[self.block_size:]
        else:
            iv, body = self._iv_policy.generate(self.block_size), ciphertext
        if _TRACER.enabled:
            _TRACER.add_cost("cipher_calls_predicted", len(body) // self.block_size)
        padded = self.decrypt_blocks(body, iv)
        return self._padding.unpad(padded, self.block_size)

    # -- block-level API (used by the attack code) ----------------------------

    @abstractmethod
    def encrypt_blocks(self, padded_plaintext: bytes, iv: bytes) -> bytes:
        """Encrypt block-aligned data under an explicit IV."""

    @abstractmethod
    def decrypt_blocks(self, ciphertext: bytes, iv: bytes) -> bytes:
        """Decrypt block-aligned data under an explicit IV."""

    def _check_aligned(self, data: bytes) -> None:
        if len(data) % self.block_size:
            raise BlockSizeError(
                f"{self.name} needs block-aligned data, got {len(data)} bytes"
            )
