"""Observability overhead guard: enabled registry vs NullRegistry.

The instrumentation layer promises to be cheap enough to leave on by
default. This benchmark runs the same short BADABING experiment under a
:class:`~repro.obs.metrics.NullRegistry` (hot paths skip all
instrumentation) and a live :class:`~repro.obs.metrics.MetricsRegistry`,
takes the min of several timed repetitions each (min-of-N is robust to
scheduler noise), and fails if the enabled registry costs more than 10%
extra wall time. It also cross-checks that both modes produce identical
estimates — instrumentation must never perturb the simulation.

The enabled path now includes the full accuracy audit (episode join,
convergence telemetry, registry publication), so the same 10% budget
also guards the audit layer; under ``NullRegistry`` the audit must not
be built at all.
"""

from __future__ import annotations

import time

from repro.experiments.runner import run_badabing
from repro.obs.metrics import MetricsRegistry, NullRegistry
from repro.obs.summary import render_scorecard

RUN_KWARGS = dict(
    scenario="episodic_cbr",
    p=0.3,
    n_slots=2000,
    seed=3,
    warmup=2.0,
    scenario_kwargs={"mean_spacing": 2.0},
)

REPEATS = 5
MAX_OVERHEAD = 1.10


def _timed(registry_factory):
    registry = registry_factory()
    started = time.perf_counter()
    result, _truth = run_badabing(metrics=registry, **RUN_KWARGS)
    return time.perf_counter() - started, result


def test_enabled_registry_overhead_within_budget(archive):
    # Warm caches/allocator once untimed, then interleave the two modes so
    # machine-load drift lands on both rather than biasing one phase.
    _timed(NullRegistry)
    null_s = live_s = float("inf")
    null_result = live_result = None
    for _ in range(REPEATS):
        elapsed, null_result = _timed(NullRegistry)
        null_s = min(null_s, elapsed)
        elapsed, live_result = _timed(MetricsRegistry)
        live_s = min(live_s, elapsed)
    ratio = live_s / null_s
    report = (
        f"observability overhead ({RUN_KWARGS['n_slots']} slots, "
        f"min of {REPEATS}):\n"
        f"  NullRegistry:    {null_s * 1e3:8.1f} ms\n"
        f"  MetricsRegistry: {live_s * 1e3:8.1f} ms\n"
        f"  ratio:           {ratio:8.3f}x (budget {MAX_OVERHEAD:.2f}x)"
    )
    archive("bench_obs_overhead", report)
    # Instrumentation must not perturb the measurement itself.
    assert live_result.frequency == null_result.frequency
    assert live_result.n_probes_sent == null_result.n_probes_sent
    # The audit layer rides inside the same overhead budget: built on the
    # live path, skipped entirely under NullRegistry.
    assert live_result.audit is not None
    assert null_result.audit is None
    assert ratio <= MAX_OVERHEAD, report


def _timed_with_exporter(registry_factory, tmp_path, tag):
    registry = registry_factory()
    from repro.obs.export import TelemetryExporter

    exporter = TelemetryExporter(
        registry, interval=1.0, path=tmp_path / f"bench-{tag}.ndjson"
    )
    exporter.start_thread()
    try:
        started = time.perf_counter()
        result, _truth = run_badabing(metrics=registry, **RUN_KWARGS)
        return time.perf_counter() - started, result, exporter
    finally:
        exporter.close()


def test_exporter_overhead_within_budget(archive, tmp_path):
    """Tentpole budget: attaching a live exporter at a 1s interval must
    add at most 10% over the already-instrumented run, and under
    ``NullRegistry`` the exporter is a strict no-op (no file, no thread,
    no records)."""
    _timed(MetricsRegistry)
    bare_s = exported_s = float("inf")
    bare_result = exported_result = None
    for repeat in range(REPEATS):
        elapsed, bare_result = _timed(MetricsRegistry)
        bare_s = min(bare_s, elapsed)
        elapsed, exported_result, _ = _timed_with_exporter(
            MetricsRegistry, tmp_path, f"live-{repeat}"
        )
        exported_s = min(exported_s, elapsed)
    ratio = exported_s / bare_s
    report = (
        f"telemetry-export overhead ({RUN_KWARGS['n_slots']} slots, "
        f"1s interval, min of {REPEATS}):\n"
        f"  registry only:       {bare_s * 1e3:8.1f} ms\n"
        f"  registry + exporter: {exported_s * 1e3:8.1f} ms\n"
        f"  ratio:               {ratio:8.3f}x (budget {MAX_OVERHEAD:.2f}x)"
    )
    archive("bench_export_overhead", report)
    # The exporter must never perturb the simulation it watches.
    assert exported_result.frequency == bare_result.frequency
    assert exported_result.n_probes_sent == bare_result.n_probes_sent
    # NullRegistry gate: zero work — no records, no snapshot file.
    _, null_result, null_exporter = _timed_with_exporter(
        NullRegistry, tmp_path, "null"
    )
    assert null_result.frequency == bare_result.frequency
    assert null_exporter.seq == 0
    assert not (tmp_path / "bench-null.ndjson").exists()
    assert ratio <= MAX_OVERHEAD, report


def test_exporter_does_not_change_registry_digest(tmp_path):
    """Same seed, with and without export: the monitored registry's
    snapshot digest must be byte-identical (seq/wall live only in the
    record envelope, alert state only on the exporter's side registry)."""
    from repro.obs.export import TelemetryExporter
    from repro.obs.metrics import snapshot_digest

    bare = MetricsRegistry()
    run_badabing(metrics=bare, **RUN_KWARGS)

    watched = MetricsRegistry()
    exporter = TelemetryExporter(
        watched, interval=0.01, path=tmp_path / "digest.ndjson"
    )
    exporter.start_thread()
    try:
        run_badabing(metrics=watched, **RUN_KWARGS)
    finally:
        exporter.close()
    assert snapshot_digest(watched.snapshot()) == snapshot_digest(bare.snapshot())


def test_audit_scorecard_archived(archive):
    """Archive the accuracy scorecard of the benchmark run for the report."""
    from repro.obs import scorecard_from_runs

    result, truth = run_badabing(metrics=MetricsRegistry(), **RUN_KWARGS)
    audit = result.audit
    assert audit is not None
    label = (
        f"{RUN_KWARGS['scenario']} p={RUN_KWARGS['p']} "
        f"N={RUN_KWARGS['n_slots']}"
    )
    scorecard = scorecard_from_runs([(label, audit, None, RUN_KWARGS["seed"])])
    lines = render_scorecard(scorecard.to_dict())
    counts = audit.episode_counts
    lines.append(
        f"  episodes: {audit.n_episodes} true — "
        f"{counts['detected']} detected, "
        f"{counts['partially_sampled']} partially sampled, "
        f"{counts['missed']} missed"
    )
    archive("audit_scorecard", "\n".join(lines))
