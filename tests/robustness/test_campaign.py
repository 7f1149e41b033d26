"""Campaign runner: determinism, classification, and the paper's claims."""

from repro.core.encrypted_db import EncryptionConfig
from repro.robustness.campaign import (
    CAMPAIGN_OUTCOMES,
    DETECTED_MAC,
    LOADER_CRASH,
    SILENT_CORRUPTION,
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
    assert first.outcomes == second.outcomes
    assert [r.fault for r in first.records] == [r.fault for r in second.records]


def test_append_scheme_corrupts_silently_but_aead_does_not():
    # The acceptance property in miniature: the first eight seeds walk
    # the whole fault taxonomy, including §3.1-style block corruption.
    result = run_campaign(seeds=8, rows=4, configs=[APPEND, EAX])
    assert result.counts(APPEND[0])[SILENT_CORRUPTION] >= 1
    assert result.counts(EAX[0])[SILENT_CORRUPTION] == 0
    assert result.counts(EAX[0])[DETECTED_MAC] >= 1
    for counter in result.outcomes.values():
        assert counter[LOADER_CRASH] == 0
    assert result.resilient_failures == []
    assert result.check_paper_expectations() == []


def test_every_outcome_is_in_the_vocabulary():
    result = run_campaign(seeds=8, rows=4, configs=[APPEND])
    for record in result.records:
        assert record.outcome in CAMPAIGN_OUTCOMES
    assert sum(result.counts(APPEND[0]).values()) == 8


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
configuration               detected-by-MAC  detected-structurally  silent-corruption  no-effect  loader-crash
--------------------------  ---------------  ---------------------  -----------------  ---------  ------------
plaintext baseline          0                4                      3                  1          0
[3] XOR-Scheme              0                4                      2                  2          0
[3] Append-Scheme           1                4                      2                  1          0
[12] index (+append cells)  1                5                      1                  1          0
fixed AEAD (EAX)            4                4                      0                  0          0
fixed AEAD (OCB)            4                4                      0                  0          0"""


def test_eight_seed_campaign_matrix_and_salvage_are_pinned():
    result = run_campaign(seeds=8, rows=4)
    assert result.format_matrix() == PINNED_MATRIX
    assert sum(r.rows_recovered for r in result.records) == 134
    assert sum(r.rows_quarantined for r in result.records) == 58
