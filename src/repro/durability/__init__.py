"""Crash-consistent persistence for the untrusted storage layer.

The package splits into four pieces, composable but independently
testable:

:mod:`repro.durability.vdisk`
    Virtual disks — the write targets — with injectable power cuts,
    torn writes, dropped write caches, and transient failures.
:mod:`repro.durability.wal`
    The append-only journal and checkpoint blob formats; a MAC tag is
    the commit marker, so torn and forged tails truncate identically.
:mod:`repro.durability.retry`
    Deadline-bounded, seeded-jitter retries for transient failures.
:mod:`repro.durability.manager`
    :class:`DurableDatabase` — journal-first mutations, atomic
    checkpoints, and the recovery decision table.
:mod:`repro.durability.crashcampaign`
    The exhaustive power-cut sweep proving atomicity at every write
    boundary.
"""

from repro.durability.crashcampaign import run_crash_campaign
from repro.durability.manager import DurableDatabase, WalRecovery
from repro.durability.retry import RetryingDisk, RetryPolicy
from repro.durability.vdisk import (
    CrashDisk,
    CrashPlan,
    FileDisk,
    FlakyDisk,
    MemoryDisk,
    VirtualDisk,
)
from repro.durability.wal import (
    Journal,
    JournalRecord,
    JournalScan,
    journal_mac,
    scan_journal,
)

__all__ = [
    "CrashDisk",
    "CrashPlan",
    "DurableDatabase",
    "FileDisk",
    "FlakyDisk",
    "Journal",
    "JournalRecord",
    "JournalScan",
    "MemoryDisk",
    "RetryPolicy",
    "RetryingDisk",
    "VirtualDisk",
    "WalRecovery",
    "journal_mac",
    "run_crash_campaign",
    "scan_journal",
]
