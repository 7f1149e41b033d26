"""Shared result type and report formatting for the campaigns.

Every campaign ends the same way: a per-configuration matrix (one row
per scheme configuration, one column per counted outcome, a caption
describing the sweep) plus, on failure, a violation listing.  The
fault, crash, rotation and chaos campaigns each return one
:class:`CampaignMatrix` of :class:`ConfigOutcome` rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar

from repro.analysis.report import format_table


def sweep_caption(kind: str, detail: str, limit: int | None = None) -> str:
    """The shared caption shape: ``<kind> (<detail>, <limit> ...)``."""
    bound = "exhaustive" if limit is None else f"limit {limit}"
    return f"{kind} ({detail}, {bound} crash points per configuration)"


@dataclass
class ConfigOutcome:
    """One configuration's row of a campaign matrix.

    Subclasses add their counters and name the matrix columns in
    ``COLUMNS`` as ``(header, attribute)`` pairs; the violation count
    closes every row."""

    COLUMNS: ClassVar[tuple[tuple[str, str], ...]] = ()

    config: str
    violations: list[str] = field(default_factory=list)

    def row(self) -> list:
        return [getattr(self, name) for _, name in self.COLUMNS] + [
            len(self.violations)
        ]


@dataclass
class CampaignMatrix:
    """A campaign's result: one ``outcome`` row per configuration."""

    outcome: type[ConfigOutcome]
    caption: str
    per_config: list = field(default_factory=list)

    def add(self, config: str) -> Any:
        """Start the row of configuration ``config``."""
        row = self.outcome(config=config)
        self.per_config.append(row)
        return row

    @property
    def violations(self) -> list[str]:
        return [v for result in self.per_config for v in result.violations]

    @property
    def ok(self) -> bool:
        return not self.violations

    def format_matrix(self) -> str:
        headers = [header for header, _ in self.outcome.COLUMNS]
        return format_table(
            ["configuration", *headers, "violations"],
            [[result.config, *result.row()] for result in self.per_config],
            caption=self.caption,
        )
