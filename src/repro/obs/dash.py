"""Terminal fleet dashboard: render ``/sessions`` rollups as a live table.

One renderer, two feeds. ``repro dash --url http://host:port`` polls a
running :class:`~repro.obs.export.TelemetryExporter`'s ``/sessions``
endpoint; ``repro dash --replay soak.ndjson`` replays a recorded export
snapshot stream offline — same frames, no live endpoint required. The
frame shows per-session rows (state, running F̂ and its drift, D̂,
§5.4 violation rate, retained samples, last sample time), the global
drop-by-cause counters, fleet admission/eviction totals, and the firing
alert rules.

Pure functions over plain dicts: everything here renders a
``repro.obs.sessions/1`` document (or derives one from a
``repro.obs.export/1`` record), so tests drive it with synthetic
documents and no sockets.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import ObservabilityError
from repro.obs.artifacts import read_ndjson
from repro.obs.export import sessions_document

#: ANSI clear-screen + home prefix used between live frames.
CLEAR = "\x1b[2J\x1b[H"

#: Fleet counters surfaced on the fleet status line, in display order.
_FLEET_COUNTERS = (
    ("admitted", "live.sessions"),
    ("rejected", "live.admission_rejected"),
    ("evicted", "live.evicted"),
    ("rate-limited", "live.rate_limited"),
    ("wire-errors", "live.wire_errors"),
)


def _fmt(value: Optional[float], digits: int = 4) -> str:
    if value is None:
        return "-"
    if value == int(value) and abs(value) < 1e9:
        return str(int(value))
    return f"{value:.{digits}f}"


def _session_state(row: Dict[str, Any]) -> str:
    if row.get("f_hat") is None:
        return "waiting"
    delta = row.get("f_delta")
    if delta is None:
        return "warmup"
    if abs(delta) < 1e-9:
        return "steady"
    return "converging"


def _row_alerts(row: Dict[str, Any], alerts: List[Dict[str, Any]]) -> str:
    """Firing rules whose watched metric is scoped to this session row."""
    label = row.get("label", "")
    names = [
        a["rule"]
        for a in alerts
        if a.get("firing") and label and label in str(a.get("metric", ""))
    ]
    return ",".join(names) if names else "-"


def dashboard_lines(document: Dict[str, Any]) -> List[str]:
    """Render one ``repro.obs.sessions/1`` document as table lines."""
    meta = document.get("meta") or {}
    alerts = document.get("alerts") or []
    firing = [a for a in alerts if a.get("firing")]
    sessions = document.get("sessions") or []
    lines: List[str] = []

    tool = meta.get("tool", "fleet")
    seq = document.get("seq")
    uptime = document.get("uptime")
    head = f"{tool} dashboard"
    if seq is not None:
        head += f" · seq {seq}"
    if uptime is not None:
        head += f" · up {uptime:.1f}s"
    head += f" · {len(sessions)} session{'s' if len(sessions) != 1 else ''}"
    lines.append(head)

    if firing:
        for alert in firing:
            since = alert.get("since")
            suffix = f" since {since:.0f}" if isinstance(since, (int, float)) else ""
            lines.append(f"ALERT [{alert.get('severity', '?')}] {alert['rule']}{suffix}")
    else:
        lines.append("alerts: none firing")
    lines.append("")

    columns = ("session", "state", "F^", "dF^", "D^(s)", "viol", "samples", "last t", "alerts")
    rows = [
        (
            str(row.get("label", "?")),
            _session_state(row),
            _fmt(row.get("f_hat")),
            _fmt(row.get("f_delta"), 5),
            _fmt(row.get("d_hat_seconds"), 3),
            _fmt(row.get("violation_rate"), 3),
            _fmt(row.get("samples")),
            _fmt(row.get("last_t"), 1),
            _row_alerts(row, alerts),
        )
        for row in sessions
    ]
    widths = [
        max(len(columns[i]), *(len(r[i]) for r in rows)) if rows else len(columns[i])
        for i in range(len(columns))
    ]
    lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(columns)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    if not rows:
        lines.append("(no session telemetry yet)")
    lines.append("")

    drops = document.get("drops") or {}
    if drops:
        lines.append(
            "drops: " + "  ".join(f"{cause}={_fmt(count)}" for cause, count in drops.items())
        )
    counters = document.get("counters") or {}
    gauges = document.get("gauges") or {}
    fleet_bits = []
    if "live.sessions_active" in gauges:
        fleet_bits.append(f"active={_fmt(gauges['live.sessions_active'])}")
    for title, counter in _FLEET_COUNTERS:
        if counter in counters:
            fleet_bits.append(f"{title}={_fmt(counters[counter])}")
    if fleet_bits:
        lines.append("fleet: " + "  ".join(fleet_bits))
    return lines


def render_frame(document: Dict[str, Any]) -> str:
    return "\n".join(dashboard_lines(document)) + "\n"


def document_from_export_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """Derive the dashboard's sessions document from one export record."""
    if not isinstance(record, dict) or "metrics" not in record:
        raise ObservabilityError("export record has no 'metrics' snapshot")
    alerts = record.get("alerts") or {}
    return sessions_document(
        record["metrics"],
        alerts=alerts.get("state") or [],
        meta=record.get("meta") or {},
        seq=record.get("seq"),
        uptime=record.get("uptime"),
        wall=record.get("wall"),
    )


def replay_documents(path) -> Iterator[Dict[str, Any]]:
    """Sessions documents for every record in a recorded export stream."""
    records = read_ndjson(path, "export records", tolerate_truncation=True)
    if not records:
        raise ObservabilityError(f"{path}: no export records to replay")
    for record in records:
        yield document_from_export_record(record)


def fetch_sessions(url: str, timeout: float = 5.0) -> Dict[str, Any]:
    """GET ``<url>/sessions`` from a live exporter endpoint."""
    target = url.rstrip("/") + "/sessions"
    try:
        with urllib.request.urlopen(target, timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8"))
    except (urllib.error.URLError, OSError, ValueError) as exc:
        raise ObservabilityError(f"cannot fetch {target}: {exc}")
