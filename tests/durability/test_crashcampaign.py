"""Crash campaign: exhaustive power cuts recover to pre- or post-commit."""

import pytest

from repro.core.encrypted_db import EncryptionConfig
from repro.durability.crashcampaign import (
    CRASH_MODES,
    _crash_points,
    run_crash_campaign,
)


PLAINTEXT = EncryptionConfig(cell_scheme="plain", index_scheme="plain")


def test_exhaustive_plaintext_sweep_never_finds_a_hybrid():
    result = run_crash_campaign(
        rows=2, configs=[("plaintext baseline", PLAINTEXT)],
    )
    assert result.ok
    assert result.violations == []
    (config,) = result.per_config
    assert config.trials > 0
    assert config.recovered_pre + config.recovered_post == config.trials
    assert config.recovered_pre > 0 and config.recovered_post > 0
    assert config.wal_truncations > 0          # torn mode tears journals
    assert config.flaky_failures_retried > 0   # the flaky check ran


def test_encrypted_sweep_with_a_limit():
    result = run_crash_campaign(
        rows=2, limit=12,
        configs=[("fixed AEAD (EAX)", EncryptionConfig.paper_fixed("eax"))],
    )
    assert result.ok
    (config,) = result.per_config
    # limit crash points x len(modes), minus torn skips on payload-free ops.
    assert 12 <= config.trials <= 12 * len(CRASH_MODES)


def test_crash_points_cover_first_and_last():
    assert _crash_points(10, None) == list(range(10))
    limited = _crash_points(100, 7)
    assert len(limited) == 7
    assert limited[0] == 0 and limited[-1] == 99
    assert limited == sorted(set(limited))
    assert _crash_points(3, 50) == [0, 1, 2]
    assert _crash_points(10, 1) == [0]
    with pytest.raises(ValueError):
        _crash_points(10, 0)


def test_matrix_formats_and_modes_validate():
    result = run_crash_campaign(
        rows=2, limit=4, modes=("cut",),
        configs=[("plaintext baseline", PLAINTEXT)],
    )
    matrix = result.format_matrix()
    assert "plaintext baseline" in matrix
    assert "crash" in matrix.lower()
    with pytest.raises(ValueError):
        run_crash_campaign(rows=2, modes=("meteor",))
