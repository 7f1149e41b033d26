"""Deterministic, seed-driven fault injection over storage images.

The storage image (:mod:`repro.engine.storage`) is exactly what the
paper's adversary holds: "anyone with physical access to the machine or
storage system holding the actual data can copy or modify it" (Sect. 1).
A :class:`FaultSpec` is one such modification, reduced to pure byte
surgery so that replaying the same spec on the same base image always
yields the same corrupted image.

Fault taxonomy (``FAULT_KINDS``):

``bitflip`` / ``multi-bitflip``
    One or several single-bit flips anywhere in the image — the classic
    "rowhammer / cosmic ray / malicious DMA" model.
``block-corrupt``
    Cipher-block-aligned corruption *inside one stored payload*: a whole
    16-octet block is overwritten with unrelated bytes.  Against CBC
    this is the surgical version of the §3.1 forgery — error propagation
    is local, so blocks far from the address checksum change plaintext
    without touching the redundancy.
``truncate``
    The image is cut short — a torn upload, a partial copy, a disk that
    died mid-write.
``record-delete`` / ``record-duplicate``
    One whole stored record (a table row or an index row/node) vanishes
    or appears twice; the enclosing count field is patched so the image
    still frames correctly.  This models targeted suppression / replay
    of individual rows.
``pointer-scramble``
    One structural reference (root, child, sibling, next-leaf) is
    overwritten.  Structure is plaintext in every scheme the paper
    analyses, so the adversary can always do this.
``payload-swap``
    Two stored payloads of the same kind trade places — the footnote-1
    attack: each payload remains individually well-formed, only its
    *position* lies.

Faults are *planned* against an :class:`ImageMap` (the byte layout the
image parser's own walk charts, :func:`map_image`) and *applied* as
position-based edits, so a spec is meaningful on the image it was
planned for and replayable forever.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass

from repro.engine.storage import ImageMap, PayloadSpan, RecordSpan, map_image

__all__ = [
    "BLOCK", "FAULT_KINDS", "FaultSpec", "ImageMap", "PayloadSpan", "RecordSpan",
    "map_image", "plan_fault", "plan_faults",
]

#: Cipher block size assumed by block-aligned faults (AES; the paper's
#: legacy schemes optionally run DES, whose 8-octet blocks are covered
#: because 16 is a multiple of 8).
BLOCK = 16

FAULT_KINDS = (
    "bitflip",
    "multi-bitflip",
    "block-corrupt",
    "truncate",
    "record-delete",
    "record-duplicate",
    "pointer-scramble",
    "payload-swap",
)


# ---------------------------------------------------------------------------
# Fault specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaultSpec:
    """One named, replayable storage fault.

    ``params`` is a flat tuple of ints whose meaning depends on ``kind``
    (documented per kind in :meth:`apply`); ``target`` is the
    human-readable location the planner aimed at, kept for reporting
    only — application is purely positional.
    """

    kind: str
    seed: int
    params: tuple[int, ...]
    target: str = ""

    @property
    def name(self) -> str:
        spec = ",".join(str(p) for p in self.params)
        label = f"{self.kind}#{self.seed}({spec})"
        return f"{label}@{self.target}" if self.target else label

    def apply(self, image: bytes) -> bytes:
        """Return the corrupted image (the input is never modified).

        A spec is positional: it only makes sense on an image shaped
        like the one it was planned against.  Offsets or lengths outside
        the image raise :class:`ValueError` — Python's forgiving slice
        semantics would otherwise turn a mis-applied spec into a silent
        no-op (or a differently-shaped fault), corrupting the campaign's
        bookkeeping instead of the image.
        """
        data = bytearray(image)
        kind, params = self.kind, self.params

        def check(condition: bool, what: str) -> None:
            if not condition:
                raise ValueError(
                    f"fault {self.name} does not fit a {len(image)}-byte "
                    f"image: {what}"
                )

        if kind == "bitflip":                      # (offset, bit)
            offset, bit = params
            check(0 <= offset < len(data), f"offset {offset} out of range")
            check(0 <= bit < 8, f"bit {bit} out of range")
            data[offset] ^= 1 << bit
        elif kind == "multi-bitflip":              # (off, bit, off, bit, ...)
            check(len(params) % 2 == 0, "odd parameter count")
            for i in range(0, len(params), 2):
                offset, bit = params[i], params[i + 1]
                check(0 <= offset < len(data), f"offset {offset} out of range")
                check(0 <= bit < 8, f"bit {bit} out of range")
                data[offset] ^= 1 << bit
        elif kind == "block-corrupt":              # (offset, length, pad_seed)
            offset, length, pad_seed = params
            check(offset >= 0 and length >= 0, "negative offset or length")
            check(
                offset + length <= len(data),
                f"span [{offset}, {offset + length}) past the end",
            )
            junk = random.Random(pad_seed).randbytes(length)
            data[offset:offset + length] = junk
        elif kind == "truncate":                   # (keep,)
            (keep,) = params
            check(0 <= keep <= len(data), f"keep {keep} out of range")
            del data[keep:]
        elif kind == "record-delete":              # (start, end, count_offset)
            start, end, count_offset = params
            check(0 <= start <= end <= len(data), "record span out of range")
            # The count field frames the records, so it precedes them;
            # a count offset inside or after the span would also shift
            # once the splice happens.
            check(
                0 <= count_offset and count_offset + 8 <= start,
                f"count offset {count_offset} not before the record",
            )
            del data[start:end]
            _bump_count(data, count_offset, -1)
        elif kind == "record-duplicate":           # (start, end, count_offset)
            start, end, count_offset = params
            check(0 <= start <= end <= len(data), "record span out of range")
            check(
                0 <= count_offset and count_offset + 8 <= start,
                f"count offset {count_offset} not before the record",
            )
            data[end:end] = data[start:end]
            _bump_count(data, count_offset, +1)
        elif kind == "pointer-scramble":           # (offset, new_value)
            offset, value = params
            check(
                0 <= offset and offset + 8 <= len(data),
                f"pointer at {offset} past the end",
            )
            data[offset:offset + 8] = struct.pack(">q", value)
        elif kind == "payload-swap":               # (a_start, a_end, b_start, b_end)
            a_start, a_end, b_start, b_end = params
            check(
                0 <= a_start <= a_end <= b_start <= b_end <= len(data),
                "spans out of order or out of range",
            )
            a, b = data[a_start:a_end], data[b_start:b_end]
            data = (
                data[:a_start] + b + data[a_end:b_start] + a + data[b_end:]
            )
        else:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        return bytes(data)


def _bump_count(data: bytearray, offset: int, delta: int) -> None:
    (value,) = struct.unpack_from(">q", data, offset)
    struct.pack_into(">q", data, offset, value + delta)


# ---------------------------------------------------------------------------
# Fault planning
# ---------------------------------------------------------------------------

def plan_fault(chart: ImageMap, seed: int) -> FaultSpec:
    """Deterministically derive one fault from a seed and an image map.

    The same (chart, seed) pair always yields the same spec; distinct
    seeds walk the whole taxonomy with a bias towards the bit-level
    faults an unreliable medium produces on its own.
    """
    # str seeding is process-independent (unlike tuple hashing).
    rng = random.Random(f"fault-{seed}-{chart.size}")
    weights = {
        "bitflip": 5,
        "multi-bitflip": 2,
        "block-corrupt": 4,
        "truncate": 2,
        "record-delete": 2,
        "record-duplicate": 2,
        "pointer-scramble": 3,
        "payload-swap": 3,
    }
    if 0 <= seed < len(FAULT_KINDS):
        # The first |FAULT_KINDS| seeds walk the taxonomy in order, so
        # every campaign of at least eight faults exercises every kind
        # (and even a five-fault smoke run reaches block corruption).
        kind = FAULT_KINDS[seed]
    else:
        kinds = list(weights)
        kind = rng.choices(kinds, weights=[weights[k] for k in kinds], k=1)[0]

    if kind == "bitflip":
        offset = rng.randrange(chart.size)
        return FaultSpec(kind, seed, (offset, rng.randrange(8)))

    if kind == "multi-bitflip":
        flips: list[int] = []
        for _ in range(rng.randint(2, 6)):
            flips += [rng.randrange(chart.size), rng.randrange(8)]
        return FaultSpec(kind, seed, tuple(flips))

    if kind == "block-corrupt":
        # Aim at a payload long enough to hold at least one whole cipher
        # block, and corrupt a block-aligned stretch away from the tail —
        # the placement §3.1 exploits against CBC's local propagation.
        # The forgery needs runway before the address checksum, so prefer
        # the longest stored *cell* payloads when any exist.
        long_enough = [p for p in chart.payloads if len(p) >= BLOCK]
        if not long_enough:
            offset = rng.randrange(max(1, chart.size - BLOCK))
            return FaultSpec(kind, seed, (offset, BLOCK, seed))
        cells = [p for p in long_enough if p.group.startswith("cell:")]
        pool = cells if cells else long_enough
        longest = max(len(p) // BLOCK for p in pool)
        pool = [p for p in pool if len(p) // BLOCK == longest]
        span = rng.choice(pool)
        blocks = len(span) // BLOCK
        block = rng.randrange(max(1, blocks - 2))
        offset = span.start + block * BLOCK
        return FaultSpec(kind, seed, (offset, BLOCK, seed), target=span.where)

    if kind == "truncate":
        return FaultSpec(kind, seed, (rng.randrange(chart.size),))

    if kind in ("record-delete", "record-duplicate"):
        if not chart.records:
            return FaultSpec("truncate", seed, (rng.randrange(chart.size),))
        record = rng.choice(chart.records)
        return FaultSpec(
            kind, seed,
            (record.start, record.end, record.count_offset),
            target=record.where,
        )

    if kind == "pointer-scramble":
        if not chart.pointers:
            return FaultSpec("bitflip", seed, (rng.randrange(chart.size), 0))
        offset, current = rng.choice(chart.pointers)
        candidates = [-1, 0, 1, rng.randrange(0, 64), rng.randrange(0, 64)]
        fresh = [c for c in candidates if c != current]
        value = rng.choice(fresh) if fresh else current + 1
        return FaultSpec(kind, seed, (offset, value))

    # payload-swap: two distinct payloads from the same population, in
    # image order so apply()'s splice arithmetic holds.
    groups: dict[str, list[PayloadSpan]] = {}
    for span in chart.payloads:
        groups.setdefault(span.group, []).append(span)
    swappable = [spans for spans in groups.values() if len(spans) >= 2]
    if not swappable:
        return FaultSpec("bitflip", seed, (rng.randrange(chart.size), 0))
    spans = rng.choice(swappable)
    a, b = rng.sample(spans, 2)
    if a.start > b.start:
        a, b = b, a
    # Swap including the length prefixes, so differently-sized payloads
    # still frame correctly — the lie is positional, not structural.
    return FaultSpec(
        "payload-swap", seed,
        (a.prefix_start, a.end, b.prefix_start, b.end),
        target=f"{a.where}<->{b.where}",
    )


def plan_faults(image: bytes, seeds: int, first_seed: int = 0) -> list[FaultSpec]:
    """Chart ``image`` once and plan ``seeds`` sequential faults."""
    chart = map_image(image)
    return [plan_fault(chart, first_seed + s) for s in range(seeds)]
