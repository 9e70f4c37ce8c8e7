"""Stage profiler unit tests: timing semantics, edge cases, span log.

Covers the DESIGN.md §14 contracts: self/cumulative attribution with
reentrancy, zero-duration spans, exception unwinding, interleaved async
frames, leaf records and accumulators, snapshot/absorb shard merging,
the ``repro.obs.trace/1`` span log and its closing ``profile`` record,
the ``obs profile``/``obs summary --slow`` renderers, digest
non-perturbation, and coverage of every pipeline stage in real runs.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro import profiling as _profiling
from repro.errors import ObservabilityError
from repro.obs.metrics import MetricsRegistry, snapshot_digest
from repro.obs.profile import (
    PIPELINE_STAGES,
    PROFILE_SCHEMA,
    STAGE_BUCKETS,
    StageProfiler,
    event,
    profile_stage,
    profiling,
)
from repro.obs.schema import validate_trace_file, validate_trace_records
from repro.obs.summary import render_call_tree, render_profile, render_stage_table


class FakeClock:
    """Deterministic clock: returns scripted times, or advances by step."""

    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        current = self.now
        self.now += self.step
        return current


class TestStageProfilerBasics:
    def test_single_stage_self_equals_cum(self):
        clock = FakeClock(step=1.0)
        prof = StageProfiler(clock=clock)
        with prof.stage("sim.run"):
            pass
        stat = prof.stages()["sim.run"]
        assert stat["calls"] == 1
        assert stat["self_seconds"] == stat["cum_seconds"] == 1.0
        assert stat["max_seconds"] == 1.0
        assert sum(stat["counts"]) == stat["calls"]

    def test_child_time_subtracted_from_parent_self(self):
        clock = FakeClock(step=1.0)
        prof = StageProfiler(clock=clock)
        # parent: t0..t3 (3s), child inside: t1..t2 (1s).
        with prof.stage("parent"):
            with prof.stage("child"):
                pass
        stages = prof.stages()
        assert stages["child"]["cum_seconds"] == 1.0
        assert stages["parent"]["cum_seconds"] == 3.0
        assert stages["parent"]["self_seconds"] == 2.0
        edges = {(e["parent"], e["stage"]): e for e in prof.edges()}
        assert edges[("parent", "child")]["calls"] == 1
        assert edges[("", "parent")]["calls"] == 1

    def test_zero_duration_span(self):
        clock = FakeClock(step=0.0)  # clock never advances
        prof = StageProfiler(clock=clock)
        with prof.stage("instant"):
            pass
        stat = prof.stages()["instant"]
        assert stat["calls"] == 1
        assert stat["self_seconds"] == 0.0
        assert stat["cum_seconds"] == 0.0
        assert stat["max_seconds"] == 0.0
        # A zero-duration call lands in the first bucket and never makes
        # a negative self time.
        assert stat["counts"][0] == 1

    def test_backwards_clock_clamps_to_zero(self):
        times = iter([10.0, 5.0])
        prof = StageProfiler(clock=lambda: next(times))
        frame = prof.start("weird")
        prof.stop(frame)
        stat = prof.stages()["weird"]
        assert stat["self_seconds"] == 0.0
        assert stat["cum_seconds"] == 0.0

    def test_reentrant_same_name_counts_cum_once(self):
        clock = FakeClock(step=1.0)
        prof = StageProfiler(clock=clock)
        # outer: t0..t3 (3s); inner same-name: t1..t2 (1s). Cumulative
        # must count wall time once (3s), not 4s; calls and sum count both.
        with prof.stage("recurse"):
            with prof.stage("recurse"):
                pass
        stat = prof.stages()["recurse"]
        assert stat["calls"] == 2
        assert stat["cum_seconds"] == 3.0
        assert stat["sum_seconds"] == 4.0
        assert stat["self_seconds"] == 3.0  # 1 (inner) + 2 (outer minus inner)

    def test_exception_unwinding_closes_abandoned_frames(self):
        clock = FakeClock(step=1.0)
        prof = StageProfiler(clock=clock)
        outer = prof.start("outer")
        prof.start("abandoned")  # never stopped explicitly
        prof.stop(outer)  # unwinding: stops outer, discards abandoned
        stages = prof.stages()
        assert "abandoned" not in stages
        assert stages["outer"]["calls"] == 1
        # The stack is clean: new frames nest at the root again.
        with prof.stage("after"):
            pass
        assert prof.stages()["after"]["calls"] == 1
        # Depth bookkeeping recovered too: reentrancy still sane.
        with prof.stage("abandoned"):
            pass
        assert prof.stages()["abandoned"]["cum_seconds"] > 0.0

    def test_interleaved_frames_are_both_recorded(self):
        # Two asyncio sessions under one profiler: A starts, B starts,
        # A stops, B stops. Neither frame is discarded as abandoned.
        prof = StageProfiler(clock=FakeClock(step=1.0))
        a = prof.start("live.session", {"port": 1})
        b = prof.start("live.session", {"port": 2})
        assert prof.stop(a) == 2.0
        assert prof.stop(b) == 2.0
        stat = prof.stages()["live.session"]
        assert stat["calls"] == 2
        assert stat["sum_seconds"] == 4.0
        spans = [s for s in prof.spans if s["name"] == "live.session"]
        assert [(s["attrs"]["port"], s["t0"], s["dur"]) for s in spans] == [
            (1, 0.0, 2.0),
            (2, 1.0, 2.0),
        ]
        # Both left the stack: a new frame nests at the root.
        with prof.stage("after"):
            pass
        assert prof.spans[-1]["parent"] is None

    def test_double_stop_is_ignored(self):
        prof = StageProfiler(clock=FakeClock())
        frame = prof.start("once")
        prof.stop(frame)
        assert prof.stop(frame) == 0.0
        assert prof.stages()["once"]["calls"] == 1

    def test_profile_stage_context_with_exception(self):
        prof = StageProfiler(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with profiling(prof):
                with profile_stage("outer"):
                    with profile_stage("inner"):
                        raise RuntimeError("boom")
        stages = prof.stages()
        # Both context managers stopped their frames in finally blocks.
        assert stages["outer"]["calls"] == 1
        assert stages["inner"]["calls"] == 1


class TestLeafRecords:
    def test_record_charges_parent_and_edge(self):
        clock = FakeClock(step=1.0)
        prof = StageProfiler(clock=clock)
        with prof.stage("parent"):
            prof.record("leaf", 0.25)
        stages = prof.stages()
        assert stages["leaf"]["calls"] == 1
        assert stages["leaf"]["self_seconds"] == 0.25
        assert stages["leaf"]["cum_seconds"] == 0.25
        # parent wall is 1s; the leaf's 0.25s is child time.
        assert stages["parent"]["self_seconds"] == 0.75
        edges = {(e["parent"], e["stage"]) for e in prof.edges()}
        assert ("parent", "leaf") in edges

    def test_record_inside_same_name_frame_does_not_double_cum(self):
        clock = FakeClock(step=1.0)
        prof = StageProfiler(clock=clock)
        # trace.io scoped frame containing trace.io leaf records (the
        # save_measurement shape): cum counts wall time once.
        with prof.stage("trace.io"):
            prof.record("trace.io", 0.5)
        stat = prof.stages()["trace.io"]
        assert stat["calls"] == 2
        assert stat["cum_seconds"] == 1.0  # the frame's wall time only
        assert stat["sum_seconds"] == 1.5

    def test_negative_record_clamps(self):
        prof = StageProfiler(clock=FakeClock())
        prof.record("leaf", -1.0)
        assert prof.stages()["leaf"]["self_seconds"] == 0.0

    def test_leaf_accumulator_folds_on_frame_stop(self):
        clock = FakeClock(step=1.0)
        prof = StageProfiler(clock=clock)
        frame = prof.start("sim.run")
        acc = prof.leaf("queue.service")
        acc[0] += 4
        acc[1] += 0.5
        acc[2] = 0.2
        acc[3][1] += 4
        prof.stop(frame)
        assert acc[4] is True  # closed at fold
        stages = prof.stages()
        assert stages["queue.service"]["calls"] == 4
        assert stages["queue.service"]["self_seconds"] == 0.5
        assert stages["queue.service"]["max_seconds"] == 0.2
        assert sum(stages["queue.service"]["counts"]) == 4
        # sim.run wall is 1s; 0.5s of it is queue.service child time.
        assert stages["sim.run"]["self_seconds"] == 0.5
        edges = {(e["parent"], e["stage"]): e for e in prof.edges()}
        assert edges[("sim.run", "queue.service")]["calls"] == 4

    def test_leaf_accumulator_root_folds_at_snapshot(self):
        prof = StageProfiler(clock=FakeClock())
        acc = prof.leaf("wire.encode")
        acc[0] += 2
        acc[1] += 0.1
        stages = prof.stages()
        assert stages["wire.encode"]["calls"] == 2
        assert acc[4] is True
        # Folding is once-only: another stages() call does not re-add.
        assert prof.stages()["wire.encode"]["calls"] == 2

    def test_empty_leaf_accumulator_records_nothing(self):
        prof = StageProfiler(clock=FakeClock())
        prof.leaf("queue.service")
        assert "queue.service" not in prof.stages()


class TestActivation:
    def test_profiling_scope_restores_previous(self):
        outer = StageProfiler()
        inner = StageProfiler()
        with profiling(outer):
            assert _profiling.ACTIVE is outer
            with profiling(inner):
                assert _profiling.ACTIVE is inner
            assert _profiling.ACTIVE is outer
        assert _profiling.ACTIVE is None

    def test_profile_stage_noop_without_active_profiler(self):
        assert _profiling.ACTIVE is None
        with profile_stage("anything") as frame:
            assert frame is None
        event("anything")  # no profiler: nothing to record, no error


class TestPublication:
    """A profiler publishes its :meth:`snapshot`; it never writes into a
    metrics registry."""

    def _profiler_with_data(self):
        clock = FakeClock(step=1.0)
        prof = StageProfiler(clock=clock)
        with prof.stage("sim.run"):
            prof.record("queue.service", 0.5)
        return prof

    def test_repeated_snapshots_do_not_double_count(self):
        prof = self._profiler_with_data()
        acc = prof.leaf("wire.encode")
        acc[0] += 3
        first = prof.snapshot()
        for _ in range(3):
            prof.stages()
            prof.edges()
        assert prof.snapshot() == first
        assert first["stages"]["wire.encode"]["calls"] == 3

    def test_published_histograms_survive_merge_without_double_count(self):
        shard = self._profiler_with_data()
        parent = StageProfiler()
        parent.absorb(shard.snapshot(), cell="c0")
        merged = parent.snapshot()
        stat = merged["stages"]["queue.service"]
        assert stat["calls"] == sum(stat["counts"]) == 1
        # Snapshotting the parent again is stable too.
        assert parent.snapshot() == merged

    def test_active_profiler_never_perturbs_registry_digest(self):
        def run(profiler):
            registry = MetricsRegistry()
            scope = profiling(profiler) if profiler else profiling(None)
            with scope:
                registry.counter("sim.events_processed").value += 10
                shard = MetricsRegistry()
                shard.counter("sim.events_processed").value += 5
                registry.merge(shard, series_labels={"cell": "c"})
            return snapshot_digest(registry.snapshot())

        assert run(None) == run(StageProfiler())

    def test_instrumented_merge_records_stage(self):
        prof = StageProfiler()
        with profiling(prof):
            parent = MetricsRegistry()
            shard = MetricsRegistry()
            shard.counter("x").value += 1
            parent.merge(shard)
        assert prof.stages()["registry.merge"]["calls"] == 1
        assert "registry.merge" in PIPELINE_STAGES


class TestDocuments:
    def test_snapshot_schema_and_absorb_roundtrip(self):
        prof = StageProfiler(clock=FakeClock())
        with prof.stage("sim.run"):
            prof.record("queue.service", 0.25)
        doc = prof.snapshot()
        assert doc["schema"] == PROFILE_SCHEMA
        assert [span["name"] for span in doc["spans"]] == ["sim.run"]
        other = StageProfiler()
        other.absorb(doc)
        other.absorb(doc)
        stages = other.stages()
        assert stages["sim.run"]["calls"] == 2  # absorbed twice: adds
        assert stages["queue.service"]["calls"] == 2

    def test_absorb_rejects_bucket_shape_mismatch(self):
        prof = StageProfiler()
        bad = {
            "stages": {
                "x": {
                    "calls": 1,
                    "self_seconds": 0.0,
                    "cum_seconds": 0.0,
                    "max_seconds": 0.0,
                    "sum_seconds": 0.0,
                    "buckets": [1.0],
                    "counts": [0, 0],
                }
            },
            "edges": [],
        }
        # counts length 2 matches buckets [1.0], but bucket bounds differ
        # from STAGE_BUCKETS.
        with pytest.raises(ObservabilityError):
            prof.absorb(bad)

    def test_absorb_adds_and_maxes(self):
        a = StageProfiler(clock=FakeClock())
        with a.stage("s"):
            pass
        b = StageProfiler(clock=FakeClock(step=2.0))
        with b.stage("s"):
            pass
        merged = StageProfiler()
        merged.absorb(a.snapshot())
        merged.absorb(b.snapshot())
        stat = merged.stages()["s"]
        assert stat["calls"] == 2
        assert stat["sum_seconds"] == 3.0
        assert stat["max_seconds"] == 2.0

    def test_absorb_tags_spans_with_shard_attrs(self):
        worker = StageProfiler(clock=FakeClock())
        with worker.stage("sweep.cell", label="a"):
            pass
        parent = StageProfiler()
        parent.absorb(worker.snapshot(), cell="a")
        (span,) = parent.spans
        assert span["name"] == "sweep.cell"
        assert span["attrs"] == {"label": "a", "cell": "a"}
        # The worker's own record is untouched.
        assert worker.spans[0]["attrs"] == {"label": "a"}


class TestSpanLog:
    def test_frames_write_a_valid_trace(self, tmp_path):
        prof = StageProfiler(clock=FakeClock(step=1.0), tool="t", seed=3)
        with prof.stage("outer", n=1):
            with prof.stage("inner"):
                prof.record("leaf", 0.1)
        prof.event("marker", k="v")
        path = tmp_path / "trace.jsonl"
        prof.write_jsonl(path)
        assert validate_trace_file(path) == []
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0] == {
            "type": "meta", "schema": "repro.obs.trace/1", "tool": "t", "seed": 3,
        }
        # Sorted by t0; leaf records stay span-free.
        assert [(r["type"], r["name"], r["parent"]) for r in records[1:-1]] == [
            ("span", "outer", None),
            ("span", "inner", "outer"),
            ("event", "marker", None),
        ]
        assert records[1]["attrs"] == {"n": 1}
        assert records[1]["t0"] == 0.0 and records[1]["dur"] == 3.0
        # The closing profile record holds the leaf stage the spans lack.
        assert records[-1] == {
            "type": "profile", "stages": prof.stages(), "edges": prof.edges(),
        }
        assert records[-1]["stages"]["leaf"]["calls"] == 1

    def test_event_never_touches_the_frame_stack(self):
        prof = StageProfiler(clock=FakeClock())
        with profiling(prof):
            with profile_stage("open"):
                event("alert.fired", rule="r")
        marker = next(s for s in prof.spans if s["type"] == "event")
        assert marker["parent"] is None
        assert marker["dur"] == 0.0
        assert marker["attrs"] == {"rule": "r"}
        assert "alert.fired" not in prof.stages()

    def test_events_from_threads_race_frames_without_loss(self):
        # The telemetry exporter emits events from its own thread while
        # the run opens and closes frames on the main thread.
        prof = StageProfiler()
        per_thread, n_threads, n_frames = 500, 4, 500

        def emit():
            for i in range(per_thread):
                prof.event("export.tick", i=i)

        threads = [threading.Thread(target=emit) for _ in range(n_threads)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for _ in range(n_frames):
                with prof.stage("outer"):
                    with prof.stage("inner"):
                        pass
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        kinds = [span["type"] for span in prof.spans]
        assert kinds.count("event") == per_thread * n_threads
        assert kinds.count("span") == 2 * n_frames
        assert prof.stages()["inner"]["calls"] == n_frames
        assert all(
            span["parent"] == "outer"
            for span in prof.spans
            if span["name"] == "inner"
        )


class TestBucketContract:
    def test_stage_buckets_strictly_increasing(self):
        assert list(STAGE_BUCKETS) == sorted(STAGE_BUCKETS)
        assert len(set(STAGE_BUCKETS)) == len(STAGE_BUCKETS)

    def test_pipeline_stage_names_unique(self):
        assert len(set(PIPELINE_STAGES)) == len(PIPELINE_STAGES) >= 8


def _profile_trace(prof, tmp_path):
    path = tmp_path / "trace.jsonl"
    prof.write_jsonl(path)
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestProfileRecord:
    def test_stage_counts_must_sum_to_calls(self, tmp_path):
        prof = StageProfiler(clock=FakeClock(step=0.5))
        with prof.stage("sim.run"):
            pass
        records = _profile_trace(prof, tmp_path)
        assert validate_trace_records(records) == []
        records[-1]["stages"]["sim.run"]["counts"][0] += 5
        assert any("counts" in p for p in validate_trace_records(records))

    def test_missing_edges_flagged(self, tmp_path):
        records = _profile_trace(StageProfiler(), tmp_path)
        del records[-1]["edges"]
        assert any("edges" in p for p in validate_trace_records(records))


class TestRenderers:
    def _profiler(self):
        prof = StageProfiler(clock=FakeClock(step=1.0), tool="t", seed=3)
        with prof.stage("sim.run"):
            prof.record("queue.service", 0.25)
        return prof

    def test_render_profile_has_table_and_tree(self, tmp_path):
        text = "\n".join(render_profile(_profile_trace(self._profiler(), tmp_path)))
        assert text.startswith("== profile (seed=3, tool=t)")
        assert "sim.run" in text and "queue.service" in text
        assert "call tree" in text

    def test_render_profile_requires_profile_record(self, tmp_path):
        records = _profile_trace(self._profiler(), tmp_path)[:-1]
        with pytest.raises(ObservabilityError):
            render_profile(records)

    def test_stage_table_ranks_by_self_time_and_truncates(self):
        stages = self._profiler().stages()
        lines = render_stage_table(stages, top=1)
        assert lines[1].split()[0] == "sim.run"  # 0.75 s self beats 0.25 s
        assert lines[-1] == "  ... 1 more stage(s)"
        assert render_stage_table({}) == ["  (no stages recorded)"]

    def test_call_tree_nests_children_under_parents(self):
        lines = render_call_tree(self._profiler().edges())
        assert [line.split()[0] for line in lines] == ["sim.run", "queue.service"]
        assert lines[1].startswith("    queue.service")

    def test_obs_summary_slow_spans(self, tmp_path, capsys):
        from repro.cli import main

        metrics = tmp_path / "metrics.json"
        metrics.write_text(json.dumps(
            {"schema": "repro.obs.metrics/1", "manifest": None,
             "metrics": {"counters": {}, "gauges": {}, "histograms": {},
                         "series": {}}}
        ))
        trace = tmp_path / "trace.jsonl"
        spans = [
            {"type": "span", "name": f"span-{i}", "t0": float(i),
             "dur": float(i), "attrs": {"cell": f"c{i}"}}
            for i in range(5)
        ]
        trace.write_text(
            "\n".join(json.dumps(s) for s in spans) + "\n", encoding="utf-8"
        )
        assert main([
            "obs", "summary", str(metrics), "--trace", str(trace),
            "--slow", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "span-4" in out          # slowest first
        assert "span-1" not in out      # beyond top-3
        assert "cell=c4" in out


class TestStageCoverage:
    def test_covers_required_pipeline_stages(self, tmp_path):
        """Every instrumented pipeline stage fires in real runs: a single
        cell, a 2-worker sweep and a live loopback, all profiled."""
        from repro.config import BadabingConfig, MarkingConfig, ProbeConfig
        from repro.experiments.runner import run_badabing, sweep_badabing
        from repro.live.runtime import live_loopback

        cell = {
            "scenario": "episodic_cbr", "warmup": 2.0,
            "scenario_kwargs": {"mean_spacing": 2.0},
        }
        live = BadabingConfig(
            probe=ProbeConfig(slot=0.005, probe_size=64, packets_per_probe=3),
            marking=MarkingConfig(tau=0.0),
            p=0.3,
            n_slots=200,
        )
        prof = StageProfiler()
        with profiling(prof):
            run_badabing(p=0.3, n_slots=800, seed=3, metrics=MetricsRegistry(), **cell)
            outcomes = sweep_badabing(
                [{"p": 0.3, "seed": 1}, {"p": 0.5, "seed": 2}],
                metrics=MetricsRegistry(), workers=2, n_slots=600, **cell,
            )
            live_loopback(
                config=live, seed=1, registry=MetricsRegistry(),
                trace_path=str(tmp_path / "loopback.jsonl"),
            )
        assert all(outcome.ok for outcome in outcomes)
        covered = set(prof.stages())
        # The acceptance bar: at least 8 named pipeline stages across
        # sim, sweep, and live runs.
        assert len(covered & set(PIPELINE_STAGES)) >= 8, sorted(covered)
        missing = set(PIPELINE_STAGES) - covered
        assert not missing, f"stages never profiled: {sorted(missing)}"
