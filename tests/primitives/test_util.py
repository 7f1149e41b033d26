"""Byte-level helpers: XOR conventions, GF(2^n) arithmetic, prefixes."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.primitives.util import (
    ascii_high_bits,
    blocks_needed,
    bytes_to_int,
    common_prefix_blocks,
    constant_time_equal,
    gf_double,
    gf_halve,
    hexstr,
    int_to_bytes,
    is_ascii,
    iter_blocks,
    ntz,
    split_blocks,
    xor_bytes,
    xor_bytes_strict,
)


@given(st.binary(max_size=64), st.binary(max_size=64))
@settings(max_examples=50, deadline=None)
def test_xor_extends_shorter_operand(x, y):
    # The paper's notation: shorter string zero-extended (Sect. 2).
    result = xor_bytes(x, y)
    assert len(result) == max(len(x), len(y))
    longer, shorter = (x, y) if len(x) >= len(y) else (y, x)
    assert result[len(shorter):] == longer[len(shorter):]


@given(st.binary(max_size=64))
@settings(max_examples=30, deadline=None)
def test_xor_involution(x):
    assert xor_bytes(xor_bytes(x, b"\x55" * len(x)), b"\x55" * len(x)) == x


def _xor_per_octet(x: bytes, y: bytes) -> bytes:
    """Reference: the shorter operand zero-extended, one octet at a time."""
    size = max(len(x), len(y))
    return bytes(a ^ b for a, b in zip(x.ljust(size, b"\0"), y.ljust(size, b"\0")))


# Operands with leading zero octets, which an integer's width drops.
_octets = st.one_of(
    st.binary(max_size=64),
    st.builds(
        lambda zeros, rest: bytes(zeros) + rest,
        st.integers(1, 9),
        st.binary(max_size=40),
    ),
)
_equal_length_pairs = _octets.flatmap(
    lambda x: st.tuples(
        st.just(x),
        st.one_of(st.binary(min_size=len(x), max_size=len(x)), st.just(bytes(len(x)))),
    )
)


@given(_octets, _octets)
@example(b"", b"")
@example(b"", b"\x00\x01")
@example(b"\x00\x00\xff", b"\x00")
@settings(max_examples=100, deadline=None)
def test_xor_bytes_matches_per_octet_reference(x, y):
    result = xor_bytes(x, y)
    assert type(result) is bytes
    assert result == _xor_per_octet(x, y)


@given(_equal_length_pairs)
@example((b"", b""))
@example((b"\x00\x00\x01", b"\x00\x00\x00"))
@settings(max_examples=100, deadline=None)
def test_xor_bytes_strict_matches_per_octet_reference(pair):
    x, y = pair
    result = xor_bytes_strict(x, y)
    assert type(result) is bytes
    assert result == _xor_per_octet(x, y)


def test_xor_strict_rejects_mismatch():
    # Unequal lengths raise, also against an empty operand and where the
    # two integers are equal because of leading zero octets.
    for x, y in [
        (b"ab", b"abc"),
        (b"abc", b"ab"),
        (b"", b"\x00"),
        (b"\x00\x01", b"\x01"),
        (bytes(16), bytes(17)),
    ]:
        with pytest.raises(ValueError):
            xor_bytes_strict(x, y)
    assert xor_bytes_strict(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"


def test_split_and_iter_blocks():
    data = bytes(range(40))
    blocks = split_blocks(data, 16)
    assert [len(b) for b in blocks] == [16, 16, 8]
    assert b"".join(blocks) == data
    assert list(iter_blocks(data, 16)) == blocks
    with pytest.raises(ValueError):
        split_blocks(data, 0)


def test_constant_time_equal():
    assert constant_time_equal(b"same", b"same")
    assert not constant_time_equal(b"same", b"diff")
    assert not constant_time_equal(b"short", b"longer")


@given(st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=30, deadline=None)
def test_int_bytes_round_trip(value):
    assert bytes_to_int(int_to_bytes(value, 8)) == value


@given(st.binary(min_size=16, max_size=16))
@settings(max_examples=30, deadline=None)
def test_gf_double_halve_inverse_128(block):
    assert gf_halve(gf_double(block)) == block
    assert gf_double(gf_halve(block)) == block


@given(st.binary(min_size=8, max_size=8))
@settings(max_examples=30, deadline=None)
def test_gf_double_halve_inverse_64(block):
    assert gf_halve(gf_double(block)) == block


def test_gf_double_known_values():
    # Doubling without carry is a plain left shift.
    assert gf_double(b"\x01" + bytes(15)) == b"\x02" + bytes(15)
    # With carry the polynomial 0x87 folds in.
    high = b"\x80" + bytes(15)
    assert gf_double(high) == bytes(15) + b"\x87"


def test_gf_double_bad_size():
    with pytest.raises(ValueError):
        gf_double(bytes(12))
    with pytest.raises(ValueError):
        gf_halve(bytes(12))


def test_ntz():
    assert [ntz(i) for i in [1, 2, 3, 4, 8, 12]] == [0, 1, 0, 2, 3, 2]
    with pytest.raises(ValueError):
        ntz(0)


def test_common_prefix_blocks():
    a = b"A" * 16 + b"B" * 16 + b"C" * 16
    b = b"A" * 16 + b"B" * 16 + b"X" * 16
    assert common_prefix_blocks(a, b, 16) == 2
    assert common_prefix_blocks(a, a, 16) == 3
    assert common_prefix_blocks(a[:20], b, 16) == 1  # partial final block ignored
    assert common_prefix_blocks(b"", b, 16) == 0


def test_blocks_needed():
    assert blocks_needed(0, 16) == 0
    assert blocks_needed(1, 16) == 1
    assert blocks_needed(16, 16) == 1
    assert blocks_needed(17, 16) == 2


def test_ascii_helpers():
    assert is_ascii(b"hello world 123")
    assert not is_ascii(b"caf\xe9")
    # High bit mask: MSB of each octet, big-endian.
    assert ascii_high_bits(b"\x80\x00\xff") == 0b101
    assert ascii_high_bits(b"abc") == 0


def test_hexstr():
    assert hexstr(b"\xde\xad") == "dead"
