"""R1 — untrusted-storage fault-injection campaign (Sect. 1 / §3.1).

Paper claim, quantified: under active corruption of the storage image,
the legacy [3]/[12] schemes admit silent corruption (the §3.1
existential forgery generalised to random faults) while the fixed AEAD
schemes detect every content-changing fault, cryptographically or
structurally.  The resilient loader additionally survives every fault
without raising.
"""

from repro.analysis.report import print_experiment
from repro.robustness.campaign import run_campaign

SEEDS = 25
ROWS = 8


def test_r1_fault_campaign(benchmark):
    result = run_campaign(seeds=SEEDS, rows=ROWS)
    print_experiment(
        "R1", "Sect. 1 threat model / §3.1 forgery, as a fault sweep",
        result.format_matrix(),
    )
    # Each row's violations hold its broken §3.1/§4 expectations and
    # every exception the resilient loader raised.
    assert result.violations == []
    silent = {row.config: row.silent_corruption for row in result.per_config}
    # The silent-corruption column shrinks as redundancy improves:
    # plaintext ≥ legacy schemes ≥ AEAD = 0.
    assert silent["plaintext baseline"] >= silent["[3] Append-Scheme"] >= 1
    assert silent["fixed AEAD (EAX)"] == 0
    assert silent["fixed AEAD (OCB)"] == 0

    benchmark(run_campaign, seeds=3, rows=4)
