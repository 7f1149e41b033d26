"""EAX mode (Bellare–Rogaway–Wagner, FSE 2004) — paper reference [1].

EAX is the first AEAD option the paper's fix names (Sect. 4).  It is a
two-pass scheme:

    N' = OMAC^0_K(N);  H' = OMAC^1_K(H);
    C  = CTR_K[N'](M); C' = OMAC^2_K(C);
    T  = (N' ⊕ C' ⊕ H')[:τ]

where ``OMAC^t_K(M) = OMAC_K([t]_n ∥ M)``.

Invocation accounting (paper Sect. 4, Performance Overhead): for n
plaintext blocks, m header blocks, and a one-block nonce, EAX needs
``2n + m + 1`` blockcipher invocations after precomputation.  We realise
that exactly: the OMAC subkeys (1 call) and the chaining state after
each tweak block [0], [1], [2] (3 calls) are cached per key, so each
message costs n (CTR) + n (OMAC of C, amortised) + m (OMAC of H) + 1
(OMAC of N) marginal calls — benchmark T-P verifies the formula against
a :class:`~repro.primitives.blockcipher.CountingCipher`.

OMAC chaining values, the subkeys and the CTR counter are kept as
integers, so each XOR is one integer operation; octets cross only the
block-cipher interface.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.aead.base import AEAD
from repro.primitives.blockcipher import BlockCipher
from repro.primitives.util import constant_time_equal, gf_double


class EAX(AEAD):
    """EAX over any block cipher, default full-block tags."""

    name = "eax"
    nonce_size = None  # EAX accepts arbitrary-length nonces.

    def __init__(self, cipher: BlockCipher, tag_size: int | None = None) -> None:
        self._cipher = cipher
        block = cipher.block_size
        self.tag_size = tag_size if tag_size is not None else block
        if not 1 <= self.tag_size <= block:
            raise ValueError("tag size must be between 1 and the block size")
        # --- precomputation (reusable across messages; 4 calls) ---
        k1 = gf_double(cipher.encrypt_block(bytes(block)))
        self._k1 = int.from_bytes(k1, "big")
        self._k2 = int.from_bytes(gf_double(k1), "big")
        self._tweak_state = tuple(
            int.from_bytes(cipher.encrypt_block(t.to_bytes(block, "big")), "big")
            for t in (0, 1, 2)
        )

    @property
    def block_size(self) -> int:
        return self._cipher.block_size

    # -- internals ----------------------------------------------------------

    def _omac(self, tweak: int, message: bytes) -> int:
        """OMAC_K([tweak]_n ∥ message), resuming from the cached state."""
        block = self._cipher.block_size
        encrypt = self._cipher.encrypt_block
        if not message:
            # The tweak block itself is the final block of OMAC's input, so
            # the cached state (no K1 mask) cannot be used: recompute.
            state, final = 0, tweak ^ self._k1
        else:
            state = self._tweak_state[tweak]
            cut = (len(message) - 1) // block * block
            for i in range(0, cut, block):
                state ^= int.from_bytes(message[i : i + block], "big")
                state = int.from_bytes(encrypt(state.to_bytes(block, "big")), "big")
            last = message[cut:]
            if len(last) == block:
                final = int.from_bytes(last, "big") ^ self._k1
            else:
                pad = 8 * (block - len(last))  # last ∥ 10*
                final = (int.from_bytes(last, "big") << pad | 1 << (pad - 1)) ^ self._k2
        return int.from_bytes(encrypt((state ^ final).to_bytes(block, "big")), "big")

    def _ctr(self, counter: int, data: bytes) -> bytes:
        """``data`` ⊕ the CTR keystream from ``counter``, in one cipher call."""
        if not data:
            return b""
        block = self._cipher.block_size
        wrap = (1 << 8 * block) - 1
        count = -(-len(data) // block)
        stream = self._cipher.encrypt_blocks(
            [((counter + j) & wrap).to_bytes(block, "big") for j in range(count)]
        )
        unused = 8 * (count * block - len(data))
        mask = int.from_bytes(b"".join(stream), "big") >> unused
        return (int.from_bytes(data, "big") ^ mask).to_bytes(len(data), "big")

    def _tag(self, value: int) -> bytes:
        return value.to_bytes(self._cipher.block_size, "big")[: self.tag_size]

    def _seal(
        self, nonce: bytes, plaintext: bytes, header: bytes
    ) -> tuple[bytes, bytes]:
        self._check_nonce(nonce)
        n_mac = self._omac(0, nonce)
        h_mac = self._omac(1, header)
        ciphertext = self._ctr(n_mac, plaintext)
        return ciphertext, self._tag(n_mac ^ self._omac(2, ciphertext) ^ h_mac)

    def _open(
        self, nonce: bytes, ciphertext: bytes, tag: bytes, header: bytes
    ) -> bytes:
        self._check_nonce(nonce)
        n_mac = self._omac(0, nonce)
        expected = n_mac ^ self._omac(1, header) ^ self._omac(2, ciphertext)
        if not constant_time_equal(self._tag(expected), tag):
            raise self._invalid()
        return self._ctr(n_mac, ciphertext)

    # -- AEAD interface --------------------------------------------------------

    def encrypt(self, nonce: bytes, plaintext: bytes, header: bytes = b"") -> tuple[bytes, bytes]:
        return self._seal(nonce, plaintext, header)

    def decrypt(self, nonce: bytes, ciphertext: bytes, tag: bytes, header: bytes = b"") -> bytes:
        return self._open(nonce, ciphertext, tag, header)

    # The batch methods are the sequential loop, but over the private
    # bodies: a wrapper patched onto ``encrypt``/``decrypt`` (as
    # ``perfbench/tracing.py`` does) must see a batch as one call.

    def encrypt_batch(
        self, items: Sequence[tuple[bytes, bytes, bytes]]
    ) -> list[tuple[bytes, bytes]]:
        return [self._seal(*item) for item in items]

    def decrypt_batch(
        self, items: Sequence[tuple[bytes, bytes, bytes, bytes]]
    ) -> list[bytes]:
        return [self._open(*item) for item in items]
