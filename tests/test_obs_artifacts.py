"""Tests for the shared artifact I/O in :mod:`repro.obs.artifacts`.

The truncation policy is exercised once against both recorded NDJSON
streams (telemetry export and controller events): a partial final line
is what a killed writer leaves and is tolerated; a partial line anywhere
else is corruption, reported with its line number.
"""

import json

import pytest

from repro.cli import main
from repro.config import BadabingConfig
from repro.errors import ObservabilityError
from repro.live.controller import FleetController, PathTarget, validate_controller_file
from repro.obs.artifacts import NdjsonWriter, read_ndjson, write_json
from repro.obs.export import TelemetryExporter, validate_export_file
from repro.obs.metrics import MetricsRegistry


def _record_export(path):
    registry = MetricsRegistry()
    registry.counter("live.packets_sent").inc(3)
    exporter = TelemetryExporter(registry, path=path)
    exporter.export_now()
    exporter.export_now()
    exporter.close()


def _record_controller(path):
    controller = FleetController([PathTarget("a", BadabingConfig())], events_path=path)
    (directive,) = controller.step()
    controller.on_session_busy("a", directive.round_index, retry_after=1.0)
    controller.finalize()


STREAMS = {
    "export": (_record_export, validate_export_file),
    "controller": (_record_controller, validate_controller_file),
}


@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_ndjson_truncation_policy(stream, tmp_path):
    record, validate = STREAMS[stream]
    path = tmp_path / "stream.ndjson"
    record(path)
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) >= 3
    records = [json.loads(line) for line in lines]

    killed = tmp_path / "killed.ndjson"
    killed.write_text("".join(lines) + lines[-1][:20])
    assert read_ndjson(killed, stream, tolerate_truncation=True) == records
    assert validate(killed) == []
    with pytest.raises(ObservabilityError, match=f"line {len(lines) + 1} "):
        read_ndjson(killed, stream, tolerate_truncation=False)

    cut = tmp_path / "cut.ndjson"
    cut.write_text(lines[0] + lines[1][:20] + "\n" + "".join(lines[2:]))
    with pytest.raises(ObservabilityError, match="line 2 "):
        validate(cut)
    assert main(["obs", "validate", f"--{stream}", str(cut)]) == 2


def test_writers_refuse_non_finite_values(tmp_path):
    document = tmp_path / "doc.json"
    write_json(document, {"value": 1.0}, "test document")
    with pytest.raises(ObservabilityError, match="test document is not strict JSON"):
        write_json(document, {"value": float("nan")}, "test document")
    assert json.loads(document.read_text()) == {"value": 1.0}

    stream = tmp_path / "stream.ndjson"
    writer = NdjsonWriter(stream, "test stream")
    writer.write({"seq": 1})
    with pytest.raises(ObservabilityError, match="test stream record is not strict"):
        writer.write({"seq": 2, "value": float("inf")})
    writer.close()
    assert read_ndjson(stream, "test stream", tolerate_truncation=False) == [{"seq": 1}]
