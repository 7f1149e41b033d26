"""Small byte-level helpers shared by all cryptographic components.

These mirror the notation of the paper: ``x ∥ y`` is concatenation
(plain ``bytes`` addition in Python) and ``x ⊕ y`` is :func:`xor_bytes`,
which implements the paper's convention that the shorter operand is
implicitly extended with zero bits (Sect. 2, *Notation*).
"""

from __future__ import annotations

import hmac as _stdlib_hmac
from typing import Iterator


def xor_bytes(x: bytes, y: bytes) -> bytes:
    """Bitwise XOR of two byte strings.

    Follows the paper's convention: if the operands have different lengths
    the shorter one is implicitly padded with zero bytes, so the result is
    always ``max(len(x), len(y))`` bytes long.
    """
    size = max(len(x), len(y))
    # Right-padding with zero octets is a left shift of the integer.
    left = int.from_bytes(x, "big") << 8 * (size - len(x))
    right = int.from_bytes(y, "big") << 8 * (size - len(y))
    return (left ^ right).to_bytes(size, "big")


def xor_bytes_strict(x: bytes, y: bytes) -> bytes:
    """Bitwise XOR requiring equal-length operands.

    Used inside mode/MAC internals where a length mismatch indicates a
    programming error rather than the paper's zero-extension convention.
    """
    if len(x) != len(y):
        raise ValueError(
            f"strict xor requires equal lengths, got {len(x)} and {len(y)}"
        )
    return (int.from_bytes(x, "big") ^ int.from_bytes(y, "big")).to_bytes(len(x), "big")


def split_blocks(data: bytes, block_size: int) -> list[bytes]:
    """Split ``data`` into consecutive ``block_size`` chunks.

    The final chunk may be shorter than ``block_size``; callers that
    require full blocks should pad first.
    """
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    return [data[i : i + block_size] for i in range(0, len(data), block_size)]


def iter_blocks(data: bytes, block_size: int) -> Iterator[bytes]:
    """Iterate over consecutive ``block_size`` chunks of ``data``."""
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    for i in range(0, len(data), block_size):
        yield data[i : i + block_size]


def constant_time_equal(x: bytes, y: bytes) -> bool:
    """Timing-safe comparison used for authentication-tag checks."""
    return _stdlib_hmac.compare_digest(x, y)


def int_to_bytes(value: int, length: int) -> bytes:
    """Big-endian fixed-width encoding of a non-negative integer."""
    return value.to_bytes(length, "big")


def bytes_to_int(data: bytes) -> int:
    """Big-endian integer decoding."""
    return int.from_bytes(data, "big")


def gf_double(block: bytes) -> bytes:
    """Doubling in GF(2^128) / GF(2^64), as used by OMAC, PMAC and OCB.

    For a 16-byte block the reduction polynomial is x^128+x^7+x^2+x+1
    (constant 0x87); for an 8-byte block it is x^64+x^4+x^3+x+1 (0x1B).
    """
    if len(block) == 16:
        poly = 0x87
    elif len(block) == 8:
        poly = 0x1B
    else:
        raise ValueError("gf_double supports 8- or 16-byte blocks only")
    value = bytes_to_int(block)
    top = len(block) * 8
    value <<= 1
    if value >> top:
        value = (value ^ poly) & ((1 << top) - 1)
    return int_to_bytes(value, len(block))


def gf_halve(block: bytes) -> bytes:
    """Inverse of :func:`gf_double` (multiplication by x^-1), used by OCB1."""
    if len(block) == 16:
        poly = 0x80000000000000000000000000000043
    elif len(block) == 8:
        poly = 0x800000000000000D
    else:
        raise ValueError("gf_halve supports 8- or 16-byte blocks only")
    value = bytes_to_int(block)
    if value & 1:
        value = (value >> 1) ^ poly
    else:
        value >>= 1
    return int_to_bytes(value, len(block))


def ntz(value: int) -> int:
    """Number of trailing zero bits of a positive integer (used by OCB)."""
    if value <= 0:
        raise ValueError("ntz is defined for positive integers")
    return (value & -value).bit_length() - 1


def hexstr(data: bytes) -> str:
    """Readable hex rendering used in reports and examples."""
    return data.hex()


def common_prefix_blocks(x: bytes, y: bytes, block_size: int) -> int:
    """Number of leading blocks on which two byte strings agree.

    This is the paper's pattern-matching observable: two ciphertexts with
    ``common_prefix_blocks > 0`` leak that their plaintexts share a prefix.
    """
    count = 0
    for bx, by in zip(iter_blocks(x, block_size), iter_blocks(y, block_size)):
        if bx != by or len(bx) != block_size:
            break
        count += 1
    return count


def blocks_needed(length: int, block_size: int) -> int:
    """Ceiling division: blocks required to cover ``length`` bytes."""
    return (length + block_size - 1) // block_size


def ascii_high_bits(data: bytes) -> int:
    """Bit mask of the most-significant bit of every octet.

    The substitution attack of Sect. 3.1 relocates ciphertexts between
    cells whose µ-values agree on exactly these bits, because ASCII
    plaintext constrains every octet to ``0 <= x <= 127``.
    """
    mask = 0
    for byte in data:
        mask = (mask << 1) | (byte >> 7)
    return mask


def is_ascii(data: bytes) -> bool:
    """True when every octet is in the 7-bit ASCII range 0..127."""
    return all(byte <= 127 for byte in data)
