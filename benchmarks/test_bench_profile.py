"""Stage-profiler overhead guard: active profiler vs none.

The DESIGN.md §14 contract has two halves. First, an *active*
:class:`~repro.obs.profile.StageProfiler` must cost at most 10% extra
wall time over the uninstrumented run — the hot sites pay one ``None``
check when profiling is off and a couple of clock reads when it is on.
Second, profiling must never perturb the simulation: the monitored
registry's snapshot digest is byte-identical with and without an active
profiler (span log included), and the estimates match exactly.
"""

from __future__ import annotations

import time

from repro.experiments.runner import run_badabing
from repro.obs.metrics import MetricsRegistry, snapshot_digest
from repro.obs.profile import PIPELINE_STAGES, StageProfiler, profiling

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


def _timed(profiler):
    registry = MetricsRegistry()
    started = time.perf_counter()
    if profiler is None:
        result, _truth = run_badabing(metrics=registry, **RUN_KWARGS)
    else:
        with profiling(profiler):
            result, _truth = run_badabing(metrics=registry, **RUN_KWARGS)
    return time.perf_counter() - started, result, registry


def test_stage_profiler_overhead_within_budget(archive):
    # Warm caches/allocator once untimed, then interleave the two modes so
    # machine-load drift lands on both rather than biasing one phase.
    _timed(None)
    bare_s = profiled_s = float("inf")
    bare_result = profiled_result = None
    bare_registry = profiled_registry = None
    profiler = None
    for _ in range(REPEATS):
        elapsed, bare_result, bare_registry = _timed(None)
        bare_s = min(bare_s, elapsed)
        profiler = StageProfiler()
        elapsed, profiled_result, profiled_registry = _timed(profiler)
        profiled_s = min(profiled_s, elapsed)
    ratio = profiled_s / bare_s
    report = (
        f"stage-profiler overhead ({RUN_KWARGS['n_slots']} slots, "
        f"min of {REPEATS}):\n"
        f"  no profiler:     {bare_s * 1e3:8.1f} ms\n"
        f"  StageProfiler:   {profiled_s * 1e3:8.1f} ms\n"
        f"  ratio:           {ratio:8.3f}x (budget {MAX_OVERHEAD:.2f}x)"
    )
    archive("bench_profile_overhead", report)
    # The profiler saw the run: the last profiled repetition covered the
    # simulation-side stages and the runner's phase frames.
    stages = profiler.stages()
    for stage in ("schedule.generate", "sim.run", "marking.apply",
                  "estimator.fold", "validator.fold"):
        assert stage in stages, f"missing stage {stage} in {sorted(stages)}"
        assert stage in PIPELINE_STAGES
    for phase in ("testbed.build", "tool.result", "truth.extract"):
        assert phase in stages, f"missing phase {phase} in {sorted(stages)}"
    # Determinism contract: profiling never perturbs the measurement or
    # the monitored registry — digests are byte-identical either way.
    assert profiled_result.frequency == bare_result.frequency
    assert profiled_result.n_probes_sent == bare_result.n_probes_sent
    assert snapshot_digest(profiled_registry.snapshot()) == snapshot_digest(
        bare_registry.snapshot()
    )
    assert ratio <= MAX_OVERHEAD, report
