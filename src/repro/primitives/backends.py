"""Pluggable block-cipher backend registry.

Every scheme in the repo reaches the raw block cipher through the
:class:`repro.primitives.blockcipher.BlockCipher` contract — a keyed
permutation with ``encrypt_block`` / ``encrypt_blocks``.  That contract is
the seam this registry plugs into: a *backend* is a factory that builds a
``BlockCipher`` for an algorithm name, and different backends may trade
auditability for speed as long as they compute the identical permutation.

Two backends ship:

``pure``
    The from-scratch reference implementations (``aes.py``, ``des.py``)
    optimised for clarity; this is the default.

``optimized``
    T-table AES with cached packed key schedules (``aes_fast.py``).
    DES/3DES have no optimized variant and fall back to the reference
    classes.

Byte-for-byte output equivalence between backends is a hard invariant:
the golden-hash image tests and the ``repro backendparity`` CLI sweep
pin it for all six paper configurations, and CI runs both as a matrix.

Selection order for :func:`make_cipher`:

1. the explicit ``backend=`` argument (e.g. from
   ``EncryptionConfig.backend``),
2. a process-wide override installed with :func:`set_default_backend`,
3. the ``REPRO_CIPHER_BACKEND`` environment variable (read at call time),
4. ``"pure"``.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod

from repro.primitives.aes import AES
from repro.primitives.aes_fast import FastAES
from repro.primitives.blockcipher import BlockCipher
from repro.primitives.des import DES, TripleDES

#: Environment variable consulted when no explicit backend is given.
BACKEND_ENV_VAR = "REPRO_CIPHER_BACKEND"

_ALGORITHM_ALIASES = {
    "aes": "aes",
    "aes-128": "aes",
    "aes-192": "aes",
    "aes-256": "aes",
    "des": "des",
    "3des": "3des",
    "tdes": "3des",
    "des3": "3des",
}


def normalize_algorithm(name: str) -> str:
    """Canonical algorithm name (``aes`` / ``des`` / ``3des``)."""
    normalized = _ALGORITHM_ALIASES.get(name.lower().replace("_", "-"))
    if normalized is None:
        raise ValueError(f"unknown block cipher {name!r}")
    return normalized


class CipherBackend(ABC):
    """A factory producing :class:`BlockCipher` instances by algorithm."""

    #: Registry name (``pure``, ``optimized``, ...).
    name: str

    @abstractmethod
    def create(self, algorithm: str, key: bytes) -> BlockCipher:
        """Build a cipher for the canonical ``algorithm`` under ``key``."""


class PureBackend(CipherBackend):
    """The from-scratch reference implementations (the default)."""

    name = "pure"

    def create(self, algorithm: str, key: bytes) -> BlockCipher:
        algorithm = normalize_algorithm(algorithm)
        if algorithm == "aes":
            return AES(key)
        if algorithm == "des":
            return DES(key)
        return TripleDES(key)


class OptimizedBackend(CipherBackend):
    """T-table AES with cached schedules; DES stays on the reference.

    Output is byte-identical to :class:`PureBackend` — only the wall
    clock differs.  The Sect. 4 invocation counts are charged by the
    instrumentation wrappers above this layer and are therefore the same
    under either backend.
    """

    name = "optimized"

    def create(self, algorithm: str, key: bytes) -> BlockCipher:
        algorithm = normalize_algorithm(algorithm)
        if algorithm == "aes":
            return FastAES(key)
        if algorithm == "des":
            return DES(key)
        return TripleDES(key)


_registry: dict[str, CipherBackend] = {}
_default_override: str | None = None


def register_backend(backend: CipherBackend, replace: bool = False) -> None:
    """Add a backend to the registry (``replace=True`` to overwrite)."""
    if backend.name in _registry and not replace:
        raise ValueError(f"backend {backend.name!r} already registered")
    _registry[backend.name] = backend


def available_backends() -> tuple[str, ...]:
    """Registered backend names, registration order."""
    return tuple(_registry)


def get_backend(name: str | None = None) -> CipherBackend:
    """The backend named ``name``, or the currently selected default."""
    if name is None:
        name = default_backend_name()
    backend = _registry.get(name)
    if backend is None:
        raise ValueError(
            f"unknown cipher backend {name!r}; registered: {', '.join(_registry)}"
        )
    return backend


def default_backend_name() -> str:
    """The backend used when none is named explicitly.

    ``set_default_backend`` wins over the ``REPRO_CIPHER_BACKEND``
    environment variable (read per call, so test monkeypatching works),
    which wins over ``pure``.
    """
    if _default_override is not None:
        return _default_override
    return os.environ.get(BACKEND_ENV_VAR, "pure")


def set_default_backend(name: str | None) -> None:
    """Install (or with ``None`` clear) a process-wide default backend."""
    global _default_override
    if name is not None:
        get_backend(name)  # validate eagerly
    _default_override = name


def make_cipher(algorithm: str, key: bytes, backend: str | None = None) -> BlockCipher:
    """Instantiate ``algorithm`` under ``key`` via the selected backend."""
    return get_backend(backend).create(algorithm, key)


register_backend(PureBackend())
register_backend(OptimizedBackend())
