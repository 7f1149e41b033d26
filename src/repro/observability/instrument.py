"""Instrumentation hooks: wrappers and decorators feeding the registry.

Three kinds of hook, matching the paper's cost model and the engine's
layering:

* **Primitive wrappers** — :class:`InstrumentedCipher`,
  :class:`InstrumentedAEAD`, :class:`InstrumentedMAC` wrap a concrete
  object and count every invocation (the Sect. 4 unit of account is
  *blockcipher invocations*, so the cipher wrapper is the ground truth
  the bench harness checks against the paper's formulas).
* **``maybe_*`` factories** — return the object unwrapped while the
  registry is disabled, so disabled configurations carry literally zero
  wrapper overhead.  Enable observability *before* constructing an
  :class:`~repro.core.encrypted_db.EncryptedDatabase` to get primitive
  counts.
* **The :func:`timed` decorator** — for engine entry points (insert,
  query paths, storage dump/load); checks ``REGISTRY.enabled`` first,
  so the disabled cost is one function call and one boolean test.

Metric names are dotted and stable; ``docs/observability.md`` is the
catalogue.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Sequence
from typing import Callable, TypeVar

from repro.aead.base import AEAD
from repro.mac.base import MAC
from repro.observability.metrics import REGISTRY
from repro.observability.trace import TRACER
from repro.primitives.blockcipher import BlockCipher

F = TypeVar("F", bound=Callable)

#: Span cost key for measured blockcipher invocations (the Sect. 4 unit).
COST_CIPHER_CALLS = "cipher_calls"
#: Span cost key for the analytic expectation (formula + cached offset).
COST_CIPHER_CALLS_PREDICTED = "cipher_calls_predicted"
#: Span cost key counting crypto operations with no analytic model; a
#: profile's formula check only applies while this stays zero.
COST_UNPREDICTED = "crypto_ops_unpredicted"

_overhead = None


def _overhead_mod():
    """Lazy import: ``repro.analysis`` pulls in the engine stack, which
    imports this package — resolving it at first use breaks the cycle."""
    global _overhead
    if _overhead is None:
        from repro.analysis import overhead

        _overhead = overhead
    return _overhead


def timed(name: str) -> Callable[[F], F]:
    """Count calls and time a function as ``<name>.calls`` / ``<name>.seconds``."""

    def decorate(fn: F) -> F:
        @functools.wraps(fn)
        def wrapper(*args: object, **kwargs: object):
            if not REGISTRY.enabled:
                return fn(*args, **kwargs)
            REGISTRY.counter(name + ".calls").inc()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                REGISTRY.histogram(name + ".seconds").observe(
                    time.perf_counter() - start
                )

        return wrapper  # type: ignore[return-value]

    return decorate


class InstrumentedCipher(BlockCipher):
    """Counts raw block-cipher invocations into the global registry.

    The runtime sibling of
    :class:`~repro.primitives.blockcipher.CountingCipher`: that one
    feeds the controlled Sect. 4 measurements, this one feeds the
    registry from live engine traffic so whole-run invocation counts
    can be cross-checked against the paper's formulas.
    """

    def __init__(self, inner: BlockCipher) -> None:
        self._inner = inner
        self.block_size = inner.block_size
        self.name = inner.name
        self._encrypts = REGISTRY.counter(f"cipher.{inner.name}.encrypt_blocks")
        self._decrypts = REGISTRY.counter(f"cipher.{inner.name}.decrypt_blocks")

    def encrypt_block(self, block: bytes) -> bytes:
        self._encrypts.inc()
        TRACER.add_cost(COST_CIPHER_CALLS)
        return self._inner.encrypt_block(block)

    def decrypt_block(self, block: bytes) -> bytes:
        self._decrypts.inc()
        TRACER.add_cost(COST_CIPHER_CALLS)
        return self._inner.decrypt_block(block)

    # The batch methods must be overridden explicitly: ``__getattr__``
    # delegation would route them straight to the inner cipher and the
    # registry would silently miss every batched invocation.  One batch
    # element == one invocation, exactly as the per-block loop charges.

    def encrypt_blocks(self, blocks: Sequence[bytes]) -> list[bytes]:
        blocks = list(blocks)
        if blocks:
            self._encrypts.inc(len(blocks))
            TRACER.add_cost(COST_CIPHER_CALLS, len(blocks))
        return self._inner.encrypt_blocks(blocks)

    def decrypt_blocks(self, blocks: Sequence[bytes]) -> list[bytes]:
        blocks = list(blocks)
        if blocks:
            self._decrypts.inc(len(blocks))
            TRACER.add_cost(COST_CIPHER_CALLS, len(blocks))
        return self._inner.decrypt_blocks(blocks)

    def __getattr__(self, attr: str):
        if attr == "_inner":
            raise AttributeError(attr)
        return getattr(self._inner, attr)


class InstrumentedAEAD(AEAD):
    """Counts AEAD seals/opens and auth failures; delegates everything else."""

    def __init__(self, inner: AEAD) -> None:
        self._inner = inner
        self.name = inner.name
        self.nonce_size = inner.nonce_size
        self.tag_size = inner.tag_size
        prefix = f"aead.{inner.name}"
        self._encrypts = REGISTRY.counter(prefix + ".encrypts")
        self._decrypts = REGISTRY.counter(prefix + ".decrypts")
        self._rejects = REGISTRY.counter(prefix + ".auth_failures")
        self._plaintext_bytes = REGISTRY.histogram(prefix + ".plaintext_bytes")

    def encrypt(
        self, nonce: bytes, plaintext: bytes, header: bytes = b""
    ) -> tuple[bytes, bytes]:
        self._encrypts.inc()
        self._plaintext_bytes.observe(len(plaintext))
        if TRACER.enabled:
            self._charge_prediction(len(plaintext), len(header))
        return self._inner.encrypt(nonce, plaintext, header)

    def decrypt(
        self, nonce: bytes, ciphertext: bytes, tag: bytes, header: bytes = b""
    ) -> bytes:
        self._decrypts.inc()
        if TRACER.enabled:
            self._charge_prediction(len(ciphertext), len(header))
        try:
            return self._inner.decrypt(nonce, ciphertext, tag, header)
        except Exception:
            self._rejects.inc()
            raise

    def _charge_prediction(self, payload_octets: int, header_octets: int) -> None:
        predicted = _overhead_mod().predicted_aead_invocations(
            self.name, payload_octets, header_octets
        )
        if predicted is None:
            TRACER.add_cost(COST_UNPREDICTED)
        else:
            TRACER.add_cost(COST_CIPHER_CALLS_PREDICTED, predicted)

    def __getattr__(self, attr: str):
        # Scheme-specific extras (block_size, subkey caches) pass through.
        if attr == "_inner":
            raise AttributeError(attr)
        return getattr(self._inner, attr)


class InstrumentedMAC(MAC):
    """Counts tag computations and verification outcomes."""

    def __init__(self, inner: MAC) -> None:
        self._inner = inner
        self.name = inner.name
        self.tag_size = inner.tag_size
        self._tags = REGISTRY.counter(f"mac.{inner.name}.tags")
        self._rejects = REGISTRY.counter(f"mac.{inner.name}.verify_failures")

    def tag(self, message: bytes) -> bytes:
        self._tags.inc()
        if TRACER.enabled:
            if self.name == "omac1":
                TRACER.add_cost(
                    COST_CIPHER_CALLS_PREDICTED,
                    _overhead_mod().predicted_omac_invocations(
                        len(message), self._inner.block_size
                    ),
                )
            elif not self.name.startswith("hmac"):
                # Cipher-backed MACs without an analytic model taint the
                # enclosing profile's formula check; HMACs make no
                # blockcipher calls, so their prediction is zero.
                TRACER.add_cost(COST_UNPREDICTED)
        return self._inner.tag(message)

    def verify(self, message: bytes, tag: bytes) -> bool:
        with TRACER.span("mac.verify", mac=self.name):
            ok = super().verify(message, tag)
        if not ok:
            self._rejects.inc()
        return ok

    def __getattr__(self, attr: str):
        if attr == "_inner":
            raise AttributeError(attr)
        return getattr(self._inner, attr)


def maybe_instrument_cipher(cipher: BlockCipher) -> BlockCipher:
    """Wrap iff observability is enabled at construction time."""
    return InstrumentedCipher(cipher) if REGISTRY.enabled else cipher


def maybe_instrument_aead(aead: AEAD) -> AEAD:
    """Wrap iff observability is enabled at construction time."""
    return InstrumentedAEAD(aead) if REGISTRY.enabled else aead


def maybe_instrument_mac(mac: MAC) -> MAC:
    """Wrap iff observability is enabled at construction time."""
    return InstrumentedMAC(mac) if REGISTRY.enabled else mac
