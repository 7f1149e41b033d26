"""Storage and performance overhead analysis (paper Sect. 4).

Two deliverables:

* **Storage** — "the storage overhead thus is limited to the nonce and
  the tag, i.e. 256 bits or 32 octets for EAX and OCB ⊕ PMAC, per cell
  resp. index entry, and 128 bits or 16 octets for CCFB."
  :func:`measure_storage_overhead` confirms this from actual stored
  representations.
* **Performance** — "we assess the overhead in terms of blockcipher
  invocations ... With a nonce of one block EAX needs 2n + m + 1
  blockcipher invocations (plus 6 for precomputations that can be
  reused), while OCB ⊕ PMAC needs n + m + 5."
  :func:`measure_blockcipher_invocations` counts real invocations with a
  :class:`~repro.primitives.blockcipher.CountingCipher` and
  :func:`paper_invocation_formula` gives the paper's predicted counts
  for side-by-side comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.aead.base import AEAD
from repro.aead.ccfb import CCFB
from repro.aead.eax import EAX
from repro.aead.gcm import GCM
from repro.aead.ocb import OCB
from repro.primitives.aes import AES
from repro.primitives.blockcipher import CountingCipher
from repro.primitives.rng import CountingNonceSource
from repro.primitives.util import blocks_needed

#: AEADs covered by the Sect. 4 analysis, plus GCM as a modern extension.
ANALYSED_AEADS = ("eax", "ocb", "ccfb", "gcm")


def make_counting_aead(name: str, key: bytes) -> tuple[AEAD, CountingCipher]:
    """An AEAD over an instrumented AES instance."""
    counter = CountingCipher(AES(key))
    if name == "eax":
        aead: AEAD = EAX(counter)
    elif name == "ocb":
        aead = OCB(counter)
    elif name == "ccfb":
        aead = CCFB(counter)
    elif name == "gcm":
        aead = GCM(counter)
    else:
        raise ValueError(f"unknown AEAD {name!r}")
    return aead, counter


@dataclass(frozen=True)
class StorageOverhead:
    """Measured per-entry storage cost of one AEAD configuration."""

    scheme: str
    nonce_octets: int
    tag_octets: int
    ciphertext_expansion: int  # ciphertext length − plaintext length

    @property
    def total_octets(self) -> int:
        return self.nonce_octets + self.tag_octets + self.ciphertext_expansion


#: Paper's stated per-entry storage overhead in octets (Sect. 4).
PAPER_STORAGE_OCTETS = {"eax": 32, "ocb": 32, "ccfb": 16}


def measure_storage_overhead(
    name: str, plaintext: bytes, key: bytes = b"\x00" * 16
) -> StorageOverhead:
    """Encrypt a value and account for every stored octet."""
    aead, _ = make_counting_aead(name, key)
    nonce_size = aead.nonce_size if aead.nonce_size is not None else 16
    nonce = CountingNonceSource(nonce_size).next()
    ciphertext, tag = aead.encrypt(nonce, plaintext, b"header")
    return StorageOverhead(
        scheme=name,
        nonce_octets=len(nonce),
        tag_octets=len(tag),
        ciphertext_expansion=len(ciphertext) - len(plaintext),
    )


@dataclass(frozen=True)
class InvocationCount:
    """Measured blockcipher invocations for one encryption."""

    scheme: str
    plaintext_blocks: int
    header_blocks: int
    total_calls: int
    marginal_per_plaintext_block: float | None = None
    marginal_per_header_block: float | None = None


def paper_invocation_formula(name: str, n: int, m: int) -> int | None:
    """The Sect. 4 predicted counts: EAX 2n+m+1, OCB⊕PMAC n+m+5.

    Returns None for schemes the paper does not give a formula for.
    """
    if name == "eax":
        return 2 * n + m + 1
    if name == "ocb":
        return n + m + 5
    return None


#: Constant difference between the paper's formula and this
#: implementation's measured per-message count, caused by per-key
#: precomputation the paper bills per message but our AEADs cache at
#: construction: EAX matches 2n+m+1 exactly (its OMAC tweak blocks are
#: genuinely per-message), while OCB's L-table and PMAC constants are
#: derived once per key, saving 3 of the paper's n+m+5 calls.
CACHED_PRECOMPUTATION_OFFSET = {"eax": 0, "ocb": -3}


def cached_precomputation_offset(name: str) -> int | None:
    """Measured-minus-formula constant for schemes with a Sect. 4 formula.

    ``formula(n, m) + offset`` is this implementation's exact expected
    invocation count per message; None for schemes without a formula.
    """
    return CACHED_PRECOMPUTATION_OFFSET.get(name)


#: Runtime AEAD ``name`` attributes → Sect. 4 formula keys (the fixed
#: scheme the paper calls OCB ⊕ PMAC registers as "ocb-pmac").
AEAD_FORMULA_ALIASES = {"ocb-pmac": "ocb"}


def predicted_aead_invocations(
    name: str, plaintext_octets: int, header_octets: int, block_size: int = 16
) -> int | None:
    """Exact expected blockcipher calls for one AEAD encrypt *or* decrypt.

    ``paper_invocation_formula(n, m) + cached_precomputation_offset`` with
    n and m the ceiling block counts of the byte lengths; encryption and
    decryption cost the same for EAX and OCB ⊕ PMAC.  Returns None for
    schemes without a Sect. 4 formula and for empty plaintexts, which sit
    outside the validated model (EAX's OMAC over the empty string costs
    one extra call) and never occur on engine paths.
    """
    name = AEAD_FORMULA_ALIASES.get(name, name)
    n = blocks_needed(plaintext_octets, block_size)
    m = blocks_needed(header_octets, block_size)
    formula = paper_invocation_formula(name, n, m)
    offset = CACHED_PRECOMPUTATION_OFFSET.get(name)
    if formula is None or offset is None or n == 0:
        return None
    return formula + offset


def predicted_omac_invocations(message_octets: int, block_size: int = 16) -> int:
    """OMAC1 tag cost: one call per block, and at least one — the empty or
    partial final block is still masked and encrypted once."""
    return max(1, blocks_needed(message_octets, block_size))


def measure_blockcipher_invocations(
    name: str,
    plaintext_blocks: int,
    header_blocks: int,
    key: bytes = b"\x00" * 16,
    block_size: int = 16,
) -> InvocationCount:
    """Count real invocations for an (n-block, m-block) encryption.

    Precomputation (subkeys, tweak states) happens at construction and is
    excluded, matching the paper's "plus ... precomputations that can be
    reused" accounting.  CCFB carries fewer payload bytes per call, so
    its n is interpreted in *payload* blocks of the same byte volume.
    """
    aead, counter = make_counting_aead(name, key)
    plaintext = bytes(plaintext_blocks * block_size)
    header = bytes(header_blocks * block_size)
    nonce_size = aead.nonce_size if aead.nonce_size is not None else block_size
    nonce = CountingNonceSource(nonce_size).next()
    counter.reset()
    aead.encrypt(nonce, plaintext, header)
    total = counter.total_calls

    # Marginal costs: add one block of plaintext / header and re-measure.
    counter.reset()
    aead.encrypt(nonce, plaintext + bytes(block_size), header)
    with_extra_plain = counter.total_calls
    counter.reset()
    aead.encrypt(nonce, plaintext, header + bytes(block_size))
    with_extra_header = counter.total_calls

    return InvocationCount(
        scheme=name,
        plaintext_blocks=plaintext_blocks,
        header_blocks=header_blocks,
        total_calls=total,
        marginal_per_plaintext_block=float(with_extra_plain - total),
        marginal_per_header_block=float(with_extra_header - total),
    )


def invocation_sweep(
    name: str,
    plaintext_block_range: range,
    header_blocks: int = 1,
    key: bytes = b"\x00" * 16,
) -> list[InvocationCount]:
    """Measured counts across message sizes (the Sect. 4 comparison curve)."""
    return [
        measure_blockcipher_invocations(name, n, header_blocks, key)
        for n in plaintext_block_range
    ]


def legacy_scheme_invocations(value_length: int, mu_size: int = 16, block_size: int = 16) -> int:
    """Blockcipher calls of the original Append-Scheme: one CBC pass over
    PKCS#7-padded V ∥ µ — the baseline the fix's overhead is relative to.
    PKCS#7 always adds 1..block_size bytes, so the padded length is the
    next strict multiple of the block size."""
    return (value_length + mu_size) // block_size + 1
