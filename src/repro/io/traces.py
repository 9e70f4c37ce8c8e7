"""JSON-lines measurement traces.

Format (one JSON object per line):

* line 1 — header: ``{"type": "badabing-trace", "version": 1,
  "slot_width": ..., "n_slots": ..., "p": ..., "metadata": {...},
  "experiments": [[start, length], ...]}``
* following lines — probes: ``{"slot": ..., "t": send_time,
  "n": n_packets, "owds": [...], "obl": owd_before_loss-or-null}``

The format is self-contained: everything estimation needs (schedule and
probe observations) is in the file, so traces can be shipped between
machines and re-analyzed with different §6.1 marking parameters.

Offline re-analysis has two implementations of the same §6.1 → §5 fold:
the scalar reference (:func:`reestimate`'s default) and the array-batched
one in :mod:`repro.core.batch` (``reestimate(..., vectorized=True)``,
``repro analyze --vectorized``), which produces the same bits in about
half the wall time on long traces. Online measurement always runs the
scalar pipeline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Union

from repro import profiling as _profiling
from repro.config import MarkingConfig
from repro.core.badabing import BadabingResult, BadabingTool
from repro.core.estimators import estimate_from_outcomes
from repro.core.marking import CongestionMarker
from repro.core.records import ExperimentOutcome, ProbeRecord
from repro.core.schedule import Experiment, coverage_report, experiment_outcomes
from repro.core.validation import validate_outcomes
from repro.errors import ConfigurationError, TraceFormatError

FORMAT_NAME = "badabing-trace"
FORMAT_VERSION = 1

PathLike = Union[str, Path]


@dataclass
class TraceDiagnostic:
    """One corrupt line skipped while loading a trace in recovery mode."""

    line_number: int
    reason: str
    snippet: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"line {self.line_number}: {self.reason} ({self.snippet})"


@dataclass
class Measurement:
    """A persisted (or persistable) measurement: schedule + probe records."""

    slot_width: float
    n_slots: int
    p: float
    experiments: List[Experiment]
    probes: List[ProbeRecord]
    metadata: Dict[str, Any] = field(default_factory=dict)
    #: Corrupt lines skipped by a recovery-mode load (empty otherwise).
    diagnostics: List[TraceDiagnostic] = field(default_factory=list)

    def outcomes(self, slot_states: Dict[int, bool]) -> List[ExperimentOutcome]:
        """Assemble y_i values from marked slot states."""
        return experiment_outcomes(self.experiments, slot_states)


def measurement_from_tool(
    tool: BadabingTool, metadata: Optional[Dict[str, Any]] = None
) -> Measurement:
    """Snapshot a finished (or in-progress) BADABING tool."""
    config = tool.config
    return Measurement(
        slot_width=config.probe.slot,
        n_slots=config.n_slots,
        p=config.p,
        experiments=list(tool.schedule.experiments),
        probes=tool.probe_records(),
        metadata=dict(metadata or {}),
    )


def _header_line(
    slot_width: float,
    n_slots: int,
    p: float,
    experiments: List[Experiment],
    metadata: Dict[str, Any],
) -> str:
    header = {
        "type": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "slot_width": slot_width,
        "n_slots": n_slots,
        "p": p,
        "metadata": metadata,
        "experiments": [
            [experiment.start_slot, experiment.length]
            for experiment in experiments
        ],
    }
    return json.dumps(header)


def _probe_line(probe: ProbeRecord) -> str:
    return json.dumps(
        {
            "slot": probe.slot,
            "t": probe.send_time,
            "n": probe.n_packets,
            "owds": list(probe.owds),
            "obl": probe.owd_before_loss,
        }
    )


class TraceWriter:
    """Incremental trace writer for long-running (live) measurements.

    The batch :func:`save_measurement` needs the whole probe list up
    front; a live session instead knows its *schedule* at start and grows
    its probe log over minutes or hours. The writer puts the header on
    disk immediately and flushes each probe line as it is appended, so a
    crash (or Ctrl-C) mid-session leaves a trace that is valid up to the
    last completed line — and :func:`load_measurement` with
    ``recover=True`` shrugs off the torn final line a hard kill can leave.

    Usable as a context manager; ``close()`` is idempotent.
    """

    def __init__(
        self,
        path: PathLike,
        slot_width: float,
        n_slots: int,
        p: float,
        experiments: List[Experiment],
        metadata: Optional[Dict[str, Any]] = None,
    ):
        from repro.obs.artifacts import ensure_parent_dir

        ensure_parent_dir(path, "trace", exc_type=TraceFormatError)
        try:
            self._handle = open(path, "w", encoding="utf-8")
        except OSError as exc:
            raise TraceFormatError(f"cannot write trace {path}: {exc}") from exc
        self.path = path
        self.probes_written = 0
        self._handle.write(
            _header_line(slot_width, n_slots, p, experiments, dict(metadata or {}))
            + "\n"
        )
        self._handle.flush()

    def write_probe(self, probe: ProbeRecord) -> None:
        if self._handle is None:
            raise TraceFormatError(f"trace writer for {self.path} is closed")
        prof = _profiling.ACTIVE
        if prof is None:
            self._handle.write(_probe_line(probe) + "\n")
            self._handle.flush()
        else:
            started = perf_counter()
            self._handle.write(_probe_line(probe) + "\n")
            self._handle.flush()
            prof.record("trace.io", perf_counter() - started)
        self.probes_written += 1

    def write_probes(self, probes: List[ProbeRecord]) -> None:
        """Append a batch of probes with one write + one flush.

        The per-probe :meth:`write_probe` flushes after every line (the
        crash-safety contract for live sessions); batch writers — sweep
        archival, trace re-export, dumping a whole finished run — pay
        that syscall tax per *batch* instead. Line format and
        resulting file bytes are identical to repeated single writes.
        """
        if self._handle is None:
            raise TraceFormatError(f"trace writer for {self.path} is closed")
        if not probes:
            return
        payload = "".join(_probe_line(probe) + "\n" for probe in probes)
        prof = _profiling.ACTIVE
        if prof is None:
            self._handle.write(payload)
            self._handle.flush()
        else:
            started = perf_counter()
            self._handle.write(payload)
            self._handle.flush()
            prof.record("trace.io", perf_counter() - started)
        self.probes_written += len(probes)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def save_measurement(
    path: PathLike,
    measurement: Union[Measurement, BadabingTool],
    metadata: Optional[Dict[str, Any]] = None,
) -> None:
    """Write a measurement trace. Accepts a Measurement or a live tool."""
    if isinstance(measurement, BadabingTool):
        measurement = measurement_from_tool(measurement, metadata)
    elif metadata:
        measurement.metadata.update(metadata)
    with _profiling.profile_stage("trace.io"):
        with TraceWriter(
            path,
            measurement.slot_width,
            measurement.n_slots,
            measurement.p,
            measurement.experiments,
            measurement.metadata,
        ) as writer:
            writer.write_probes(measurement.probes)


def _parse_probe_line(line: str) -> ProbeRecord:
    """Decode one probe line; raises ValueError/KeyError/TypeError on rot."""
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError(f"expected a JSON object, got {type(record).__name__}")
    return ProbeRecord(
        slot=record["slot"],
        send_time=record["t"],
        n_packets=record["n"],
        owds=tuple(record["owds"]),
        owd_before_loss=record["obl"],
    )


def load_measurement(path: PathLike, recover: bool = False) -> Measurement:
    """Read a measurement trace written by :func:`save_measurement`.

    Parameters
    ----------
    path:
        The JSONL trace file.
    recover:
        When False (default), the first corrupt probe line aborts the load
        with a :class:`~repro.errors.TraceFormatError` naming the line.
        When True, corrupt probe lines are *skipped* and recorded as
        :class:`TraceDiagnostic` entries on the returned measurement — a
        partially damaged trace still yields every intact record. The
        header (line 1) is required in either mode: without it there is
        no schedule to recover against.
    """
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace {path}: {exc}") from exc
    with _profiling.profile_stage("trace.io"), handle:
        header_line = handle.readline()
        if not header_line.strip():
            raise TraceFormatError(f"{path}: empty trace file", line_number=1)
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(
                f"{path}: header is not valid JSON: {exc}", line_number=1
            ) from exc
        if not isinstance(header, dict) or header.get("type") != FORMAT_NAME:
            kind = header.get("type") if isinstance(header, dict) else header
            raise TraceFormatError(
                f"{path}: not a {FORMAT_NAME} file (type={kind!r})", line_number=1
            )
        if header.get("version") != FORMAT_VERSION:
            raise TraceFormatError(
                f"{path}: unsupported trace version {header.get('version')!r}",
                line_number=1,
            )
        try:
            measurement = Measurement(
                slot_width=header["slot_width"],
                n_slots=header["n_slots"],
                p=header["p"],
                experiments=[
                    Experiment(start, length)
                    for start, length in header["experiments"]
                ],
                probes=[],
                metadata=header.get("metadata", {}),
            )
        except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
            raise TraceFormatError(
                f"{path}: malformed header: {exc!r}", line_number=1
            ) from exc
        for line_number, line in enumerate(handle, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                measurement.probes.append(_parse_probe_line(line))
            except (
                json.JSONDecodeError,
                KeyError,
                TypeError,
                ValueError,
                ConfigurationError,
            ) as exc:
                reason = (
                    f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
                )
                if not recover:
                    raise TraceFormatError(
                        f"{path}: corrupt probe record on line {line_number}: "
                        f"{reason}",
                        line_number=line_number,
                    ) from exc
                snippet = line if len(line) <= 80 else line[:77] + "..."
                measurement.diagnostics.append(
                    TraceDiagnostic(line_number, reason, snippet)
                )
    return measurement


def reestimate(
    measurement: Measurement,
    marking: Optional[MarkingConfig] = None,
    improved: Optional[bool] = None,
    vectorized: bool = False,
) -> BadabingResult:
    """Offline §6.1 marking + §5 estimation over a loaded trace.

    Degrades like the live tool: partial traces (recovery-mode loads,
    receiver outages) produce an estimate with a sub-unity coverage
    report; a trace with no usable experiments raises
    :class:`~repro.errors.EstimationError` describing the coverage.
    ``vectorized`` runs the marking → fold middle as array passes
    (requires numpy); the result is bit-identical to the scalar path.
    """
    if vectorized:
        return _reestimate_vectorized(measurement, marking, improved)
    marker = CongestionMarker(marking)
    marked = marker.mark(measurement.probes)
    outcomes = measurement.outcomes(marked.slot_states)
    coverage = coverage_report(measurement.experiments, marked.slot_states)
    estimate = estimate_from_outcomes(outcomes, improved=improved, coverage=coverage)
    return BadabingResult(
        estimate=estimate,
        validation=validate_outcomes(outcomes, coverage=coverage),
        marking=marked,
        probes=measurement.probes,
        outcomes=outcomes,
        n_probes_sent=len({probe.slot for probe in measurement.probes}),
        probe_load_bps=_probe_load_bps(measurement),
        slot_width=measurement.slot_width,
        coverage=coverage,
    )


def _probe_load_bps(measurement: Measurement) -> float:
    """Probe load from the records themselves (sizes are not persisted, so
    report packets/second x nominal 600 B unless metadata overrides)."""
    probe_size = int(measurement.metadata.get("probe_size", 600))
    duration = measurement.n_slots * measurement.slot_width
    if duration <= 0:
        return 0.0
    return (
        sum(probe.n_packets for probe in measurement.probes) * probe_size * 8 / duration
    )


def _reestimate_vectorized(
    measurement: Measurement,
    marking: Optional[MarkingConfig],
    improved: Optional[bool],
) -> BadabingResult:
    """Array-batched twin of :func:`reestimate` (same bits, fewer objects)."""
    from repro.core import batch
    from repro.core.estimators import estimate_from_counter
    from repro.core.marking import MarkingResult
    from repro.core.validation import report_from_counter

    starts, lengths = batch.experiment_arrays(measurement.experiments)
    # Probes go in trace order: the batch marker rejects an unsorted
    # stream exactly like the scalar one.
    pipeline = batch.run_slot_pipeline(
        starts,
        lengths,
        batch.ProbeArrays.from_records(measurement.probes),
        marking=marking,
    )
    marked = MarkingResult(
        slot_states=pipeline.marking.slot_states_dict(),
        marked_by_loss=pipeline.marking.marked_by_loss,
        marked_by_delay=pipeline.marking.marked_by_delay,
        noise_losses=pipeline.marking.noise_losses,
        owd_max_estimates=pipeline.marking.owd_max_estimates,
    )
    outcomes = batch.materialize_outcomes(
        pipeline.starts, pipeline.keys, pipeline.valid
    )
    estimate = estimate_from_counter(
        pipeline.counter, improved=improved, coverage=pipeline.coverage
    )
    return BadabingResult(
        estimate=estimate,
        validation=report_from_counter(pipeline.counter, coverage=pipeline.coverage),
        marking=marked,
        probes=measurement.probes,
        outcomes=outcomes,
        n_probes_sent=len({probe.slot for probe in measurement.probes}),
        probe_load_bps=_probe_load_bps(measurement),
        slot_width=measurement.slot_width,
        coverage=pipeline.coverage,
    )
