"""Campaign runner: determinism, classification, and the paper's claims."""

import pytest

from repro.core.encrypted_db import EncryptionConfig
from repro.robustness.campaign import (
    CAMPAIGN_OUTCOMES,
    default_campaign_configs,
    run_campaign,
)

APPEND = ("[3] Append-Scheme", EncryptionConfig(
    cell_scheme="append", index_scheme="sdm2004", iv_policy="zero"))
EAX = ("fixed AEAD (EAX)", EncryptionConfig.paper_fixed("eax"))


def test_default_configs_cover_broken_and_fixed():
    labels = [label for label, _ in default_campaign_configs()]
    assert any("Append-Scheme" in label for label in labels)
    assert any("[12]" in label for label in labels)
    assert any("XOR" in label for label in labels)
    assert sum("AEAD" in label for label in labels) >= 2


def test_campaign_is_deterministic():
    first = run_campaign(seeds=8, rows=4, configs=[APPEND])
    second = run_campaign(seeds=8, rows=4, configs=[APPEND])
    assert first == second


def test_append_scheme_corrupts_silently_but_aead_does_not():
    # The acceptance property in miniature: the first eight seeds walk
    # the whole fault taxonomy, including §3.1-style block corruption.
    result = run_campaign(seeds=8, rows=4, configs=[APPEND, EAX])
    append, eax = result.per_config
    assert append.silent_corruption >= 1
    assert eax.silent_corruption == 0
    assert eax.detected_by_mac >= 1
    assert append.loader_crash == eax.loader_crash == 0
    assert result.violations == []


def test_every_outcome_is_in_the_vocabulary():
    result = run_campaign(seeds=8, rows=4, configs=[APPEND])
    headers = [header for header, _ in result.outcome.COLUMNS]
    assert headers[: len(CAMPAIGN_OUTCOMES)] == list(CAMPAIGN_OUTCOMES)
    (append,) = result.per_config
    assert sum(append.row()[: len(CAMPAIGN_OUTCOMES)]) == 8


def test_a_raising_resilient_loader_is_a_violation_on_its_row(monkeypatch):
    def broken_loader(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(
        "repro.robustness.campaign.load_database_resilient", broken_loader
    )
    result = run_campaign(seeds=1, rows=4, configs=[EAX])
    (eax,) = result.per_config
    assert len(eax.violations) == 1
    assert eax.violations[0].startswith("fixed AEAD (EAX): resilient loader raised on ")
    assert eax.violations[0].endswith(": RuntimeError: boom")
    assert eax.rows_recovered == eax.rows_quarantined == 0


@pytest.mark.parametrize("seeds", [0, -3])
def test_campaign_needs_at_least_one_seed(seeds):
    with pytest.raises(ValueError):
        run_campaign(seeds=seeds, configs=[APPEND])


def test_matrix_mentions_every_configuration_and_outcome():
    result = run_campaign(seeds=8, rows=4, configs=[APPEND, EAX])
    matrix = result.format_matrix()
    assert APPEND[0] in matrix and EAX[0] in matrix
    for outcome in CAMPAIGN_OUTCOMES:
        assert outcome in matrix


#: The full campaign at eight seeds (every fault kind against every
#: configuration), as the eager audit and the resilient loader classify
#: it.  Any change to either verifier that moves a verdict or a
#: salvaged row shows up here.
PINNED_MATRIX = """\
fault-injection detection matrix (8 seeded faults per configuration, 4-row database)
configuration               detected-by-MAC  detected-structurally  silent-corruption  no-effect  loader-crash  recovered  quarantined  violations
--------------------------  ---------------  ---------------------  -----------------  ---------  ------------  ---------  -----------  ----------
plaintext baseline          0                4                      3                  1          0             31         1            0
[3] XOR-Scheme              0                4                      2                  2          0             0          32           0
[3] Append-Scheme           1                4                      2                  1          0             25         6            0
[12] index (+append cells)  1                5                      1                  1          0             28         5            0
fixed AEAD (EAX)            4                4                      0                  0          0             25         7            0
fixed AEAD (OCB)            4                4                      0                  0          0             25         7            0"""


def test_eight_seed_campaign_matrix_and_salvage_are_pinned():
    result = run_campaign(seeds=8, rows=4)
    assert result.format_matrix() == PINNED_MATRIX
    assert sum(r.rows_recovered for r in result.per_config) == 134
    assert sum(r.rows_quarantined for r in result.per_config) == 58
