"""repro.obs — zero-dependency observability for the measurement pipeline.

Four pieces, usable separately or together:

* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of labeled
  counters/gauges/histograms plus bounded time-series samplers. On by
  default throughout the substrate; pass :class:`NullRegistry` to run at
  pre-instrumentation speed. Snapshots are deterministic for a fixed seed.
* :mod:`repro.obs.profile` — the :class:`StageProfiler`: per-stage wall
  timings plus a span log of the run's phases, exported as JSONL that
  ends with the run's per-stage profile (``obs profile`` renders it).
* :mod:`repro.obs.manifest` — :class:`RunManifest` provenance records
  (seed, config digest, version, timings, headline metrics) attached to
  runner results.
* :mod:`repro.obs.schema` — structural validators for the exported
  artifacts (used by CI and ``badabing-sim obs validate``).

See DESIGN.md §8 for the span taxonomy and document schemas.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.alerts import (
    ALERT_RULES_SCHEMA,
    AlertEvent,
    AlertRule,
    AlertRules,
    controller_alert_rules,
    default_fleet_rules,
    load_alert_rules,
    write_alert_rules,
)
from repro.obs.artifacts import ensure_parent_dir, write_json
from repro.obs.audit import (
    AUDIT_SCHEMA,
    AccuracyScorecard,
    EpisodeAudit,
    RunAudit,
    ScorecardRow,
    audit_document,
    audit_episodes,
    audit_run,
    publish_audit,
    row_from_audit,
    scorecard_digest,
    scorecard_from_runs,
    write_audit_document,
)
from repro.obs.dash import (
    dashboard_lines,
    document_from_export_record,
    fetch_sessions,
    render_frame,
    replay_documents,
)
from repro.obs.export import (
    EXPORT_SCHEMA,
    SESSIONS_SCHEMA,
    TelemetryExporter,
    parse_key,
    render_exposition,
    rollup_sessions,
    sessions_document,
    validate_export_file,
    validate_export_record,
)
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    RunManifest,
    config_digest,
    summarize_snapshot,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    RUN_LENGTH_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Series,
    merge_snapshots,
    snapshot_digest,
)
from repro.obs.profile import (
    PIPELINE_STAGES,
    PROFILE_SCHEMA,
    STAGE_BUCKETS,
    TRACE_SCHEMA,
    StageProfiler,
    profile_stage,
    profiling,
)
from repro.obs.schema import (
    METRICS_SCHEMA,
    load_audit_document,
    load_metrics_document,
    validate_audit_document,
    validate_metrics_document,
    validate_trace_file,
    validate_trace_records,
)
from repro.obs.summary import (
    group_label_path,
    render_audit,
    render_grouped_summary,
    render_profile,
    render_scorecard,
    render_slowest_spans,
    render_summary,
    slowest_spans,
    split_snapshot_by_label,
    split_snapshot_by_path,
    summary_document,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Series",
    "MetricsRegistry",
    "NullRegistry",
    "RunManifest",
    "config_digest",
    "summarize_snapshot",
    "merge_snapshots",
    "snapshot_digest",
    "scorecard_digest",
    "render_summary",
    "summary_document",
    "validate_metrics_document",
    "validate_trace_file",
    "validate_trace_records",
    "load_metrics_document",
    "write_metrics_document",
    "metrics_document",
    "EpisodeAudit",
    "RunAudit",
    "ScorecardRow",
    "AccuracyScorecard",
    "audit_episodes",
    "audit_run",
    "publish_audit",
    "row_from_audit",
    "scorecard_from_runs",
    "audit_document",
    "write_audit_document",
    "load_audit_document",
    "validate_audit_document",
    "render_audit",
    "render_scorecard",
    "DEFAULT_BUCKETS",
    "RUN_LENGTH_BUCKETS",
    "METRICS_SCHEMA",
    "MANIFEST_SCHEMA",
    "TRACE_SCHEMA",
    "AUDIT_SCHEMA",
    "EXPORT_SCHEMA",
    "SESSIONS_SCHEMA",
    "ALERT_RULES_SCHEMA",
    "TelemetryExporter",
    "AlertRule",
    "AlertRules",
    "AlertEvent",
    "controller_alert_rules",
    "default_fleet_rules",
    "group_label_path",
    "load_alert_rules",
    "write_alert_rules",
    "render_exposition",
    "parse_key",
    "rollup_sessions",
    "sessions_document",
    "validate_export_record",
    "validate_export_file",
    "dashboard_lines",
    "render_frame",
    "replay_documents",
    "fetch_sessions",
    "document_from_export_record",
    "render_grouped_summary",
    "split_snapshot_by_label",
    "split_snapshot_by_path",
    "ensure_parent_dir",
    # stage profiling (DESIGN.md §14)
    "PROFILE_SCHEMA",
    "PIPELINE_STAGES",
    "STAGE_BUCKETS",
    "StageProfiler",
    "profiling",
    "profile_stage",
    "render_profile",
    "slowest_spans",
    "render_slowest_spans",
]


def metrics_document(
    registry: MetricsRegistry, manifest: Optional[RunManifest] = None
) -> Dict[str, Any]:
    """Assemble the exportable ``{"schema", "manifest", "metrics"}`` doc."""
    return {
        "schema": METRICS_SCHEMA,
        "manifest": manifest.to_dict() if manifest is not None else None,
        "metrics": registry.snapshot(),
    }


def write_metrics_document(
    path,
    registry: MetricsRegistry,
    manifest: Optional[RunManifest] = None,
) -> Dict[str, Any]:
    """Write the combined manifest + snapshot JSON document to ``path``,
    creating missing parent directories."""
    document = metrics_document(registry, manifest)
    write_json(path, document, "metrics document")
    return document
