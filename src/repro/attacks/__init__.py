"""The seven attacks of paper Sect. 3, plus empirical security games.

Every attack runs through the keyless
:class:`~repro.core.encrypted_db.StorageView` and reports a uniform
:class:`~repro.attacks.adversary.AttackOutcome`, so the same procedures
are executed verbatim against the broken schemes (where they succeed)
and the fixed schemes (where benchmark E8 asserts they fail).
"""

from repro.attacks.access_pattern import (
    AccessPatternObserver,
    ObservedQuery,
    evaluate_access_pattern_linking,
    link_queries_by_trace,
)
from repro.attacks.adversary import AttackOutcome, LinkageClaim
from repro.attacks.chosen_plaintext import (
    ConfirmedGuess,
    confirm_guess,
    dictionary_attack,
    evaluate_chosen_plaintext,
)
from repro.attacks.frequency import (
    FrequencyGuess,
    ciphertext_histogram,
    evaluate_frequency_attack,
    rank_match,
)
from repro.attacks.forgery import (
    ForgeryResult,
    evaluate_append_forgery,
    evaluate_index_forgery,
    forge_append_cell,
    forge_index_entry,
    forgeable_block_count,
)
from repro.attacks.games import (
    GameResult,
    equality_distinguisher_game,
    tamper_game,
)
from repro.attacks.index_linkage import (
    OrderingLeak,
    evaluate_index_linkage,
    find_index_table_links,
    recover_ordering,
    true_index_links,
)
from repro.attacks.mac_interaction import (
    InteractionForgeryResult,
    evaluate_mac_interaction,
    forge_entry_via_mac_interaction,
    replaceable_blocks,
)
from repro.attacks.pattern_matching import (
    PrefixMatch,
    evaluate_pattern_matching,
    find_cell_prefix_matches,
    keystream_reuse_break,
)
from repro.attacks.substitution import (
    PartialCollision,
    RelocationResult,
    evaluate_substitution,
    expected_collisions,
    find_partial_collisions,
    predicted_relocated_value,
    relocate_ciphertext,
    running_row_addresses,
)

__all__ = [
    "AccessPatternObserver",
    "AttackOutcome",
    "ConfirmedGuess",
    "ForgeryResult",
    "FrequencyGuess",
    "GameResult",
    "InteractionForgeryResult",
    "LinkageClaim",
    "OrderingLeak",
    "PartialCollision",
    "PrefixMatch",
    "RelocationResult",
    "ciphertext_histogram",
    "confirm_guess",
    "dictionary_attack",
    "evaluate_access_pattern_linking",
    "equality_distinguisher_game",
    "evaluate_append_forgery",
    "evaluate_chosen_plaintext",
    "evaluate_frequency_attack",
    "evaluate_index_forgery",
    "evaluate_index_linkage",
    "evaluate_mac_interaction",
    "evaluate_pattern_matching",
    "evaluate_substitution",
    "expected_collisions",
    "find_cell_prefix_matches",
    "find_index_table_links",
    "find_partial_collisions",
    "forge_append_cell",
    "forge_entry_via_mac_interaction",
    "forge_index_entry",
    "forgeable_block_count",
    "keystream_reuse_break",
    "link_queries_by_trace",
    "predicted_relocated_value",
    "rank_match",
    "recover_ordering",
    "relocate_ciphertext",
    "replaceable_blocks",
    "running_row_addresses",
    "tamper_game",
    "true_index_links",
]
