"""Scenario drivers behind ``repro explain`` and ``repro trace``.

Runs a small, deterministic query workload — the same schema, rows, and
query mix as the bench scenarios — with tracing enabled, and returns
the finished spans plus their per-query
:class:`~repro.observability.profile.QueryProfile` aggregation.  The
bench harness measures throughput over these workloads; this module
answers the complementary question of *where each query's cipher calls
went*, with the Sect. 4 formula check attached per query.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import observability
from repro.bench.scenarios import (
    REQUIRES_TYPED_READS,
    _MASTER_KEY,
    _populated_db,
    supports_typed_reads,
)
from repro.core.encrypted_db import EncryptionConfig
from repro.engine.codec import uncached
from repro.engine.query import PointQuery, RangeQuery
from repro.observability.profile import (
    QueryProfile,
    build_query_profiles,
    format_profile,
)
from repro.observability.runmeta import run_metadata
from repro.observability.trace import TRACER, Span

#: Scenarios the explain/trace drivers know how to run.
EXPLAIN_SCENARIOS = ("point_query", "range_query")

#: Workload size: enough rows for a two-level B⁺-tree, small enough
#: that a full six-config explain stays instant.
_ROWS = 8
_QUERIES = 2


@dataclass
class ExplainResult:
    """Profiled spans of one (scenario, configuration) trace run."""

    scenario: str
    config: str
    profiles: list[QueryProfile] = field(default_factory=list)
    spans: list[Span] = field(default_factory=list)
    skipped: str | None = None


def trace_scenario(
    scenario: str, label: str, config: EncryptionConfig
) -> ExplainResult:
    """Run one scenario under tracing; spans cover only the query phase.

    Construction-time spans (inserts, index builds) are discarded so
    every captured trace roots at a ``query.*`` span, but the codecs are
    built with observability already enabled — the instrumented
    primitives are what attach measured and predicted cipher costs.
    No index entry or cell is remembered between decodes, so each query
    pays the paper's full per-query cost.
    """
    if scenario not in EXPLAIN_SCENARIOS:
        raise ValueError(f"unknown explain scenario {scenario!r}")
    if scenario in REQUIRES_TYPED_READS and not supports_typed_reads(config):
        return ExplainResult(
            scenario, label, skipped="codec does not round-trip typed reads"
        )
    was_enabled = observability.enabled()
    observability.enable()
    try:
        with uncached():
            observability.reset()
            db = _populated_db(config, _ROWS, with_indexes=True)
            observability.reset()  # drop construction spans, keep instrumented codecs
            if scenario == "point_query":
                for i in range(_QUERIES):
                    PointQuery("records", "id", i % _ROWS).execute(db)
            else:
                half = max(1, _ROWS // 2)
                for i in range(_QUERIES):
                    low = i % half
                    RangeQuery("records", "id", low, low + half - 1).execute(db)
            spans = TRACER.finished()
            return ExplainResult(
                scenario, label, profiles=build_query_profiles(spans), spans=spans
            )
    finally:
        observability.reset()
        if not was_enabled:
            observability.disable()


def explain_metadata(scenario: str, configs: list[str]) -> dict:
    """Trace-export header: workload seed + config names + provenance."""
    return run_metadata(
        seed=_MASTER_KEY.hex(),
        config=", ".join(configs),
        scenario=scenario,
    )


def render_explain_report(results: list[ExplainResult]) -> str:
    """The ``repro explain`` text report over one or more configurations."""
    blocks = []
    for result in results:
        title = f"== {result.scenario} · {result.config} =="
        if result.skipped is not None:
            blocks.append(f"{title}\nskipped: {result.skipped}")
            continue
        body = "\n\n".join(format_profile(profile) for profile in result.profiles)
        blocks.append(f"{title}\n{body}")
    return "\n\n".join(blocks) + "\n"
