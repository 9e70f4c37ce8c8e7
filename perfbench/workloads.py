"""The benchmark's three workloads: input generation, the timed op, checks.

Each workload is closed-loop: one process, one client, one estimate at a
time, back to back. A run's seed fixes a few *cases* (see
:func:`setup_cases`); ``setup`` turns a case seed into every input the op
needs; ``run`` is the timed call a user makes (``run_badabing`` for the
simulated cells, ``load_measurement`` + ``reestimate`` for the offline
trace); ``summarize`` reads the op's outputs after the clock has stopped
and turns them into an :class:`OpSummary` whose digest and counts must
repeat exactly on every op of the same case.

The default scalar paths are the ones measured, because they are what
``repro measure``/``sweep``/``analyze`` run unless told otherwise.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.config import MarkingConfig, ProbeConfig
from repro.core.records import ProbeRecord
from repro.core.schedule import GeometricSchedule
from repro.experiments.runner import run_badabing
from repro.io import traces
from repro.io.traces import Measurement, reestimate, save_measurement
from repro.obs.metrics import MetricsRegistry, snapshot_digest
from repro.synthetic.renewal import AlternatingRenewalProcess, GeometricSlots


@dataclass
class OpSummary:
    """What one op produced, reduced to checkable numbers."""

    frequency: float
    #: sha256 over the estimate tuple (and, for cells, the registry
    #: snapshot digest): identical on every repeat of the same seed.
    digest: str
    #: Exact per-layer counts (events, packets, probes, ...).
    counts: Dict[str, float]
    f_rel_err: float
    d_rel_err: float
    #: Failed workload-specific output checks (empty when all pass).
    problems: List[str] = field(default_factory=list)
    #: Trace bytes the op read from disk (0 for the simulated cells).
    bytes_loaded: int = 0


@dataclass(frozen=True)
class Workload:
    """One workload; why it was chosen is recorded in BENCHMARK.json."""

    name: str
    n_slots: int
    #: Cases per run. The work of one simulated cell varies by ~8% from
    #: seed to seed; cycling through three averages that out of the
    #: run-to-run spread. One trace is already 240k slots.
    cases: int
    #: Per-layer shims that must record at least one call on every traced op.
    layers: Tuple[str, ...]
    setup: Callable[[int, Path], Any]
    run: Callable[[Any], Any]
    summarize: Callable[[Any, Any], OpSummary]
    #: Untimed work after setup that the checks need (not input generation).
    prepare_checks: Callable[[Any], None] = lambda inputs: None


def setup_cases(workload: Workload, seed: int, workdir: Path) -> List[Any]:
    """Inputs of a run's cases, from case seeds no other run seed shares."""
    return [
        workload.setup(seed * workload.cases + k, workdir) for k in range(workload.cases)
    ]


def _estimate_key(result: Any) -> Tuple[Any, ...]:
    estimate = result.estimate
    return (
        estimate.frequency,
        estimate.duration_slots,
        estimate.n_experiments,
        sorted(estimate.counts.items()),
        estimate.r_hat,
        estimate.improved,
    )


def _digest(*parts: Any) -> str:
    # repr keeps every float digit and makes nan comparable.
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


def _rel_err(estimate: float, truth: float) -> float:
    """|estimate - truth| / truth. Where that is undefined (a nan estimate,
    or a cell whose window held no loss) it scores 1.0, or 0.0 when both
    are 0; an undefined error is not a failed op."""
    if math.isnan(estimate):
        return 1.0
    if truth == 0:
        return 0.0 if estimate == 0 else 1.0
    return abs(estimate - truth) / truth


# --------------------------------------------------------------- cells

CELL_LAYERS = (
    "net.build",
    "traffic.start",
    "core.tool_init",
    "net.sim_run",
    "analysis.truth",
    "core.result",
    "obs.audit",
    "core.mark",
    "core.fold",
    "core.validate",
)


def _cell(name: str, **kwargs: Any) -> Workload:
    def setup(seed: int, workdir: Path) -> Dict[str, Any]:
        return dict(kwargs, seed=seed)

    def run(inputs: Dict[str, Any]) -> Tuple[Any, Any, MetricsRegistry]:
        registry = MetricsRegistry()
        result, truth = run_badabing(metrics=registry, **inputs)
        return result, truth, registry

    def summarize(inputs: Dict[str, Any], output: Any) -> OpSummary:
        result, truth, registry = output
        snapshot = registry.snapshot()
        counters, gauges = snapshot["counters"], snapshot["gauges"]

        def total(prefix: str) -> int:
            return sum(v for k, v in counters.items() if k.split("{")[0] == prefix)

        sent = total("probe.packets_sent")
        counts = {
            "net.events": counters["sim.events_processed"],
            "net.events_cancelled": counters["sim.events_cancelled"],
            "net.heap_peak": gauges["sim.heap_peak"]["value"],
            "net.queue_enqueued": total("queue.enqueued_packets"),
            "net.queue_dropped": total("queue.dropped_packets"),
            "net.link_tx": total("link.tx_packets"),
            "net.fault_drops": total("faults.drops"),
            "analysis.episodes": truth.n_episodes,
            "core.probes": total("probe.trains_sent"),
            "core.probe_loss_ratio": total("probe.packets_lost") / sent,
            "core.coverage": result.coverage.experiment_fraction,
        }
        return OpSummary(
            frequency=result.frequency,
            digest=_digest(_estimate_key(result), snapshot_digest(snapshot)),
            counts=counts,
            f_rel_err=_rel_err(result.frequency, truth.frequency),
            d_rel_err=_rel_err(result.duration_seconds, truth.duration_mean),
        )

    return Workload(name, kwargs["n_slots"], 3, CELL_LAYERS, setup, run, summarize)


# ----------------------------------------------------- offline trace

#: Table 7-sized trace: 240k slots of 5 ms (20 minutes) probed at p = 0.3
#: with the improved (extended-experiment) design.
TRACE_SLOTS = 240_000
TRACE_P = 0.3
#: Renewal-process phase means, in slots: ~70 ms congestion episodes about
#: every 2 s, so F is about 0.035 and there are ~600 episodes to estimate D.
CONGESTED_MEAN_SLOTS = 14.0
UNCONGESTED_MEAN_SLOTS = 386.0
#: One-way delay model. The propagation floor plus a queue that is nearly
#: full (92-100% of QUEUE_MAX_S) while congested and at most 30% full
#: otherwise; probe packets are dropped only while congested. With §6.1's
#: alpha = 0.1 the delay threshold (0.9 x the OWD just before a loss) sits
#: between the two bands, so marking works inside its operating envelope
#: and the error metrics measure the estimator, not the generator.
BASE_OWD_S = 0.020
QUEUE_MAX_S = 0.100
CONGESTED_FILL = (0.92, 1.0)
UNCONGESTED_FILL = (0.0, 0.3)
CONGESTED_PACKET_LOSS = 0.25
#: What ``repro analyze`` uses by default.
ANALYZE_MARKING = MarkingConfig(alpha=0.1, tau=0.080)


@dataclass
class TraceInputs:
    path: Path
    n_bytes: int
    truth_frequency: float
    truth_duration_slots: float
    #: The in-memory Measurement the trace was written from, until
    #: :func:`_trace_reference` has estimated it.
    measurement: Optional[Measurement] = None
    #: Digest of ``reestimate`` over that in-memory Measurement; every op
    #: over the loaded trace must equal it (the I/O round-trip check).
    reference_digest: Optional[str] = None


def synthesize_measurement(seed: int) -> Tuple[Measurement, List[bool]]:
    """A probe trace over a renewal-process congestion truth, from ``seed``."""
    probe = ProbeConfig()
    states = AlternatingRenewalProcess(
        GeometricSlots(CONGESTED_MEAN_SLOTS),
        GeometricSlots(UNCONGESTED_MEAN_SLOTS),
        random.Random(f"{seed}:states"),
    ).generate(TRACE_SLOTS)
    schedule = GeometricSchedule(
        TRACE_P, TRACE_SLOTS, random.Random(f"{seed}:schedule"), improved=True
    )
    rng = random.Random(f"{seed}:owd")
    k = probe.packets_per_probe
    probes: List[ProbeRecord] = []
    for slot in schedule.probe_slots:
        congested = states[slot]
        lo, hi = CONGESTED_FILL if congested else UNCONGESTED_FILL
        owds: List[float] = []
        owd_before_loss = None
        lost = False
        for _ in range(k):
            if congested and rng.random() < CONGESTED_PACKET_LOSS:
                if not lost:
                    lost = True
                    owd_before_loss = owds[-1] if owds else None
            else:
                owds.append(BASE_OWD_S + QUEUE_MAX_S * rng.uniform(lo, hi))
        probes.append(
            ProbeRecord(
                slot=slot,
                send_time=slot * probe.slot,
                n_packets=k,
                owds=tuple(owds),
                owd_before_loss=owd_before_loss,
            )
        )
    measurement = Measurement(
        slot_width=probe.slot,
        n_slots=TRACE_SLOTS,
        p=TRACE_P,
        experiments=list(schedule.experiments),
        probes=probes,
        metadata={"generator": "perfbench renewal trace", "seed": seed},
    )
    return measurement, states


def _trace_setup(seed: int, workdir: Path) -> TraceInputs:
    measurement, states = synthesize_measurement(seed)
    path = workdir / f"trace-{seed}.jsonl"
    save_measurement(path, measurement)
    frequency, duration = AlternatingRenewalProcess.truth(states)
    return TraceInputs(path, path.stat().st_size, frequency, duration, measurement)


def _trace_reference(inputs: TraceInputs) -> None:
    """Estimate the in-memory Measurement once, as the round-trip reference."""
    reference = reestimate(inputs.measurement, marking=ANALYZE_MARKING)
    inputs.reference_digest = _digest(_estimate_key(reference))
    inputs.measurement = None


def _trace_run(inputs: TraceInputs) -> Tuple[Measurement, Any]:
    # Looked up on the module so the io.load shim (which rebinds it in
    # repro's own modules) sees the call.
    measurement = traces.load_measurement(inputs.path)
    return measurement, reestimate(measurement, marking=ANALYZE_MARKING)


def _trace_summarize(inputs: TraceInputs, output: Any) -> OpSummary:
    measurement, result = output
    probes = measurement.probes
    digest = _digest(_estimate_key(result))
    counts = {
        "io.probes_parsed": len(probes),
        "core.probes": len(probes),
        "core.probe_loss_ratio": sum(p.lost_packets for p in probes)
        / sum(p.n_packets for p in probes),
        "core.coverage": result.coverage.experiment_fraction,
    }
    problems = []
    if digest != inputs.reference_digest:
        problems.append("reestimate of the loaded trace differs from the in-memory one")
    return OpSummary(
        frequency=result.frequency,
        digest=digest,
        counts=counts,
        f_rel_err=_rel_err(result.frequency, inputs.truth_frequency),
        d_rel_err=_rel_err(result.estimate.duration_slots, inputs.truth_duration_slots),
        problems=problems,
        bytes_loaded=inputs.n_bytes,
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        _cell(
            "cbr_cell",
            scenario="episodic_cbr",
            p=0.3,
            n_slots=20_000,
            warmup=2.0,
            scenario_kwargs={"mean_spacing": 2.0},
        ),
        _cell(
            "tcp_faulted_cell",
            scenario="infinite_tcp",
            p=0.3,
            n_slots=9_000,
            warmup=10.0,
            faults="mild",
        ),
        Workload(
            "analyze_trace",
            TRACE_SLOTS,
            1,
            ("io.load", "core.mark", "core.fold", "core.validate"),
            _trace_setup,
            _trace_run,
            _trace_summarize,
            _trace_reference,
        ),
    )
}
