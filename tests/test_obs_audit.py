"""Tests for the accuracy-audit layer (repro.obs.audit).

Covers the audit acceptance criteria:

* episode classification (detected / partially_sampled / missed) against
  synthetic ground truth,
* convergence telemetry folding (monotone counts, decimation, final point),
* scorecard aggregation including failed sweep cells,
* same-seed runs export byte-identical audit documents,
* audit documents validate against the schema and round-trip the CLI,
* NullRegistry runs build no audit at all.
"""

import json

import pytest

from repro.analysis.episodes import LossEpisode, episode_slot_range
from repro.cli import main
from repro.core.records import ExperimentOutcome
from repro.core.streaming import convergence_points
from repro.errors import ConfigurationError, ObservabilityError
from repro.experiments.runner import (
    run_badabing,
    scorecard_from_outcomes,
    sweep_badabing,
)
from repro.obs import (
    AUDIT_SCHEMA,
    AccuracyScorecard,
    MetricsRegistry,
    NullRegistry,
    audit_document,
    render_audit,
    render_scorecard,
    scorecard_from_runs,
    validate_audit_document,
    write_audit_document,
)
from repro.obs.audit import (
    EPISODE_DETECTED,
    EPISODE_MISSED,
    EPISODE_PARTIAL,
    MAX_CONVERGENCE_POINTS,
    audit_episodes,
    relative_error,
)
from repro.obs.schema import load_audit_document

RUN_KWARGS = dict(
    scenario="episodic_cbr",
    p=0.3,
    n_slots=1500,
    seed=3,
    warmup=2.0,
    scenario_kwargs={"mean_spacing": 2.0},
)


def _run(**overrides):
    return run_badabing(**dict(RUN_KWARGS, **overrides))


# ---------------------------------------------------------------------------
# Episode classification
# ---------------------------------------------------------------------------

class TestEpisodeSlotRange:
    def test_maps_times_to_slots(self):
        episode = LossEpisode(1.2, 3.5, drops=4)
        assert episode_slot_range(episode, origin=0.0, slot_width=1.0) == (1, 3)

    def test_origin_shift(self):
        episode = LossEpisode(12.001, 12.009, drops=1)
        assert episode_slot_range(episode, origin=10.0, slot_width=0.005) == (400, 401)

    def test_point_episode_occupies_one_slot(self):
        episode = LossEpisode(2.5, 2.5, drops=1)
        assert episode_slot_range(episode, origin=0.0, slot_width=1.0) == (2, 2)

    def test_rejects_bad_slot_width(self):
        with pytest.raises(ConfigurationError):
            episode_slot_range(LossEpisode(0.0, 1.0, 1), origin=0.0, slot_width=0.0)


class TestAuditEpisodes:
    def _audit(self, episodes, probe_slots, congested=()):
        slot_states = {slot: slot in congested for slot in probe_slots}
        return audit_episodes(
            episodes, probe_slots, slot_states, origin=0.0, slot_width=1.0, n_slots=10
        )

    def test_classification(self):
        episodes = [
            LossEpisode(1.2, 3.5, drops=4),  # slots 1-3, probed+marked
            LossEpisode(5.1, 5.2, drops=1),  # slot 5, probed but unmarked
            LossEpisode(6.0, 6.9, drops=2),  # slot 6, never probed
        ]
        audits = self._audit(episodes, [1, 2, 5, 8], congested={1})
        assert [a.status for a in audits] == [
            EPISODE_DETECTED,
            EPISODE_PARTIAL,
            EPISODE_MISSED,
        ]
        assert audits[0].probed_slots == 2
        assert audits[0].congested_slots == 1
        assert audits[0].sampling_coverage == pytest.approx(2 / 3)
        assert audits[2].probed_slots == 0
        assert audits[2].sampling_coverage == 0.0

    def test_slots_clamped_to_window(self):
        episodes = [LossEpisode(-0.5, 0.2, drops=1), LossEpisode(9.5, 12.0, drops=1)]
        audits = self._audit(episodes, [0, 9], congested={0, 9})
        assert (audits[0].first_slot, audits[0].last_slot) == (0, 0)
        assert (audits[1].first_slot, audits[1].last_slot) == (9, 9)
        assert all(a.status == EPISODE_DETECTED for a in audits)

    def test_preserves_episode_metadata(self):
        audits = self._audit([LossEpisode(4.0, 4.5, drops=7)], [4])
        assert audits[0].drops == 7
        assert audits[0].duration == pytest.approx(0.5)


class TestRelativeError:
    def test_basic(self):
        assert relative_error(1.2, 1.0) == pytest.approx(0.2)

    def test_undefined_cases(self):
        assert relative_error(1.0, 0.0) is None
        assert relative_error(float("nan"), 1.0) is None
        assert relative_error(float("inf"), 1.0) is None


# ---------------------------------------------------------------------------
# Convergence telemetry
# ---------------------------------------------------------------------------

class TestConvergence:
    def test_points_fold_in_slot_order(self):
        outcomes = [
            ExperimentOutcome(4, (1, 0)),
            ExperimentOutcome(0, (0, 0)),
            ExperimentOutcome(2, (0, 1)),
        ]
        points = convergence_points(outcomes)
        assert [p.n_experiments for p in points] == [1, 2, 3]
        assert [p.end_slot for p in points] == [1, 3, 5]
        assert points[-1].frequency == pytest.approx(1 / 3)
        assert points[-1].transitions == 2

    def test_every_decimates_but_keeps_last(self):
        outcomes = [ExperimentOutcome(i, (0, 0)) for i in range(0, 20, 2)]
        points = convergence_points(outcomes, every=4)
        assert [p.n_experiments for p in points] == [4, 8, 10]

    def test_every_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            convergence_points([], every=0)

    def test_duration_none_without_transitions(self):
        points = convergence_points([ExperimentOutcome(0, (1, 1))])
        assert points[0].duration_slots is None


# ---------------------------------------------------------------------------
# Scorecard
# ---------------------------------------------------------------------------

class TestScorecard:
    def test_aggregates_and_failed_rows(self):
        result, _ = _run()
        audit = result.audit
        scorecard = scorecard_from_runs(
            [
                ("good", audit, None, 3),
                ("crashed", None, "SimulationError: boom", 4),
            ]
        )
        assert scorecard.n_runs == 2
        assert scorecard.n_ok == 1
        assert scorecard.mean_frequency_rel_error == audit.frequency_rel_error
        row = scorecard.rows[1]
        assert not row.ok and "boom" in row.error
        rendered = "\n".join(render_scorecard(scorecard.to_dict()))
        assert "good" in rendered and "FAILED" in rendered

    def test_empty_scorecard(self):
        scorecard = AccuracyScorecard()
        assert scorecard.n_runs == 0
        assert scorecard.mean_frequency_rel_error is None
        assert validate_audit_document(audit_document(scorecard)) == []

    def test_scorecard_from_sweep_outcomes(self):
        registry = MetricsRegistry()
        outcomes = sweep_badabing(
            [
                {"seed": 3, "label": "ok-cell"},
                {"seed": 4, "label": "doomed", "max_events": 500},
            ],
            metrics=registry,
            **{k: v for k, v in RUN_KWARGS.items() if k != "seed"},
        )
        scorecard = scorecard_from_outcomes(outcomes)
        assert [row.label for row in scorecard.rows] == ["ok-cell", "doomed"]
        assert [row.ok for row in scorecard.rows] == [True, False]
        assert scorecard.rows[0].acceptable is not None


# ---------------------------------------------------------------------------
# Run integration
# ---------------------------------------------------------------------------

class TestAuditRun:
    def test_audit_attached_and_consistent(self):
        registry = MetricsRegistry()
        result, truth = _run(metrics=registry)
        audit = result.audit
        assert audit is not None
        assert audit.tool == "badabing"
        assert audit.true_frequency == truth.frequency
        assert audit.est_frequency == result.frequency
        assert audit.n_episodes == truth.n_episodes
        counts = audit.episode_counts
        assert sum(counts.values()) == audit.n_episodes
        # Convergence folds every outcome exactly once.
        assert audit.convergence[-1].n_experiments == len(result.outcomes)
        assert len(audit.convergence) <= MAX_CONVERGENCE_POINTS + 1
        assert audit.validation["n_experiments"] == len(result.outcomes)

    def test_null_registry_skips_audit(self):
        result, _ = _run(metrics=NullRegistry())
        assert result.audit is None

    def test_publish_audit_metrics(self):
        registry = MetricsRegistry()
        result, _ = _run(metrics=registry)
        snapshot = registry.snapshot()
        counts = result.audit.episode_counts
        for status, count in counts.items():
            key = f"audit.episodes{{status={status},tool=badabing}}"
            assert snapshot["counters"].get(key, 0) == count
        assert "audit.f_hat{tool=badabing}" in snapshot["series"]
        assert "audit.violation_rate{tool=badabing}" in snapshot["series"]
        coverage_hist = snapshot["histograms"][
            "audit.episode_sampling_coverage{tool=badabing}"
        ]
        assert coverage_hist["count"] == result.audit.n_episodes

    def test_same_seed_byte_identical_documents(self):
        payloads = []
        for _ in range(2):
            result, _ = _run(metrics=MetricsRegistry())
            scorecard = scorecard_from_runs([("run", result.audit, None, 3)])
            document = audit_document(scorecard, runs=[result.audit])
            payloads.append(
                json.dumps(document, sort_keys=True, allow_nan=False)
            )
        assert payloads[0] == payloads[1]

    def test_document_validates_and_renders(self):
        result, _ = _run(metrics=MetricsRegistry())
        scorecard = scorecard_from_runs([("run", result.audit, None, 3)])
        document = audit_document(scorecard, runs=[result.audit])
        assert document["schema"] == AUDIT_SCHEMA
        assert validate_audit_document(document) == []
        rendered = render_audit(document)
        assert "accuracy scorecard" in rendered
        assert "validation" in rendered

    def test_validator_catches_corruption(self):
        result, _ = _run(metrics=MetricsRegistry())
        scorecard = scorecard_from_runs([("run", result.audit, None, 3)])
        document = audit_document(scorecard, runs=[result.audit])
        document["runs"][0]["episode_audit"]["counts"]["detected"] += 1
        document["runs"][0]["convergence"]["f_hat"].append(0.5)
        document["scorecard"]["n_runs"] = 99
        problems = validate_audit_document(document)
        assert any("counts do not add up" in p for p in problems)
        assert any("mismatched lengths" in p for p in problems)
        assert any("n_runs" in p for p in problems)

    def test_write_rejects_non_finite_values(self, tmp_path):
        document = audit_document(AccuracyScorecard())
        document["bad"] = float("nan")
        with pytest.raises(ObservabilityError):
            write_audit_document(tmp_path / "bad.json", document)


class TestCliAudit:
    def test_measure_audit_roundtrip(self, tmp_path, capsys):
        audit_path = tmp_path / "audit.json"
        code = main(
            [
                "measure", "episodic_cbr", "--slots", "1500", "--seed", "3",
                "--profile", "smoke", "--audit-out", str(audit_path),
            ]
        )
        assert code == 0
        assert audit_path.exists()
        capsys.readouterr()

        document = load_audit_document(audit_path)
        assert document["schema"] == AUDIT_SCHEMA

        assert main(["obs", "audit", str(audit_path)]) == 0
        assert "accuracy scorecard" in capsys.readouterr().out

        assert main(["obs", "audit", str(audit_path), "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["scorecard"]["n_runs"] == 1

        metrics_path = tmp_path / "metrics.json"
        code = main(
            [
                "measure", "episodic_cbr", "--slots", "1500", "--seed", "3",
                "--profile", "smoke", "--metrics-out", str(metrics_path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert (
            main(
                [
                    "obs", "validate", str(metrics_path),
                    "--audit", str(audit_path),
                ]
            )
            == 0
        )
        assert "validation OK" in capsys.readouterr().out

    def test_obs_validate_fails_on_corrupt_audit(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        main(
            [
                "measure", "episodic_cbr", "--slots", "1500", "--seed", "3",
                "--profile", "smoke", "--metrics-out", str(metrics_path),
            ]
        )
        capsys.readouterr()
        audit_path = tmp_path / "bad.json"
        audit_path.write_text(json.dumps({"schema": "wrong"}))
        assert (
            main(["obs", "validate", str(metrics_path), "--audit", str(audit_path)])
            == 1
        )
        assert "FAILED" in capsys.readouterr().err

    def test_obs_summary_json(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.jsonl"
        main(
            [
                "measure", "episodic_cbr", "--slots", "1500", "--seed", "3",
                "--profile", "smoke",
                "--metrics-out", str(metrics_path),
                "--trace-out", str(trace_path),
            ]
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "obs", "summary", str(metrics_path),
                    "--trace", str(trace_path), "--json",
                ]
            )
            == 0
        )
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["manifest"]["tool"] == "badabing"
        assert parsed["counters"]["probe.trains_sent{tool=badabing}"] > 0
        assert "sim.run" in parsed["spans"]
