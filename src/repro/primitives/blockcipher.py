"""Block-cipher interface and instrumentation.

``ENC_k(x)`` / ``DEC_k(y)`` in the paper denote a single application of
the raw block cipher; this module defines that contract.  The
:class:`CountingCipher` wrapper implements the measurement device for the
paper's Sect. 4 performance analysis, which counts *blockcipher
invocations* rather than wall-clock time.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

from repro.errors import BlockSizeError


class BlockCipher(ABC):
    """A deterministic permutation on fixed-size blocks under a key."""

    #: Block size in bytes (16 for AES, 8 for DES).
    block_size: int
    #: Human-readable algorithm name.
    name: str

    @abstractmethod
    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one block."""

    @abstractmethod
    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt exactly one block."""

    def encrypt_blocks(self, blocks: Sequence[bytes]) -> list[bytes]:
        """Encrypt a batch of independent blocks.

        Byte-for-byte equal to ``[self.encrypt_block(b) for b in blocks]``;
        this default *is* that loop.  Subclasses may override it to
        amortize per-call overhead.  Each element of the batch still counts
        as one blockcipher invocation in the paper's Sect. 4 cost model —
        batching changes wall-clock time, never the invocation count.
        """
        encrypt_block = self.encrypt_block
        return [encrypt_block(block) for block in blocks]

    def decrypt_blocks(self, blocks: Sequence[bytes]) -> list[bytes]:
        """Decrypt a batch of independent blocks (see ``encrypt_blocks``)."""
        decrypt_block = self.decrypt_block
        return [decrypt_block(block) for block in blocks]

    def _check_block(self, block: bytes) -> None:
        if len(block) != self.block_size:
            raise BlockSizeError(
                f"{self.name} operates on {self.block_size}-byte blocks, "
                f"got {len(block)} bytes"
            )


class CountingCipher(BlockCipher):
    """Wrapper counting raw block-cipher invocations.

    Sect. 4 of the paper assesses AEAD overhead "in terms of blockcipher
    invocations, depending on the size of the attribute to be encrypted".
    Wrapping any cipher in this class and running an AEAD over it measures
    exactly that quantity (benchmark T-P).
    """

    def __init__(self, inner: BlockCipher) -> None:
        self._inner = inner
        self.block_size = inner.block_size
        self.name = f"counting({inner.name})"
        self.encrypt_calls = 0
        self.decrypt_calls = 0

    @property
    def total_calls(self) -> int:
        """Total forward plus inverse invocations."""
        return self.encrypt_calls + self.decrypt_calls

    def reset(self) -> None:
        """Zero both counters (between measurement runs)."""
        self.encrypt_calls = 0
        self.decrypt_calls = 0

    def encrypt_block(self, block: bytes) -> bytes:
        self.encrypt_calls += 1
        return self._inner.encrypt_block(block)

    def decrypt_block(self, block: bytes) -> bytes:
        self.decrypt_calls += 1
        return self._inner.decrypt_block(block)

    def encrypt_blocks(self, blocks: Sequence[bytes]) -> list[bytes]:
        # One batch element == one invocation; the batch path must charge
        # exactly what the per-block loop would have.
        blocks = list(blocks)
        self.encrypt_calls += len(blocks)
        return self._inner.encrypt_blocks(blocks)

    def decrypt_blocks(self, blocks: Sequence[bytes]) -> list[bytes]:
        blocks = list(blocks)
        self.decrypt_calls += len(blocks)
        return self._inner.decrypt_blocks(blocks)


class IdentityCipher(BlockCipher):
    """A do-nothing 'cipher' for tests of structural plumbing only.

    Never used by any scheme; exists so engine/serialisation tests can
    observe plaintext flow without real keys.  Deliberately not registered
    in any cipher factory.
    """

    def __init__(self, block_size: int = 16) -> None:
        self.block_size = block_size
        self.name = "identity"

    def encrypt_block(self, block: bytes) -> bytes:
        self._check_block(block)
        return bytes(block)

    def decrypt_block(self, block: bytes) -> bytes:
        self._check_block(block)
        return bytes(block)
