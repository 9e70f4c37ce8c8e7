"""Adaptive fleet-controller tests: rebalancing, backoff, merge, alerts.

The synchronous tests drive :class:`FleetController` with a fake clock
and hand-built :class:`ValidationReport` s, so budget decisions are
checked deterministically without sockets. The asyncio acceptance test
runs the real 3-path loopback fleet (one path behind a heavy-loss
Gilbert impairment) and asserts the headline property from the issue:
after the clean paths converge, at least 30% of the remaining probe
budget above an even split shifts to the unconverged path, while the
canonical merged-registry digest equals a serial replay of the shards
in observed completion order.
"""

import asyncio
import json
import random
from collections import Counter

import pytest

from repro.cli import main
from repro.config import BadabingConfig, MarkingConfig, ProbeConfig
from repro.core.validation import report_from_counter
from repro.errors import ConfigurationError, ObservabilityError
from repro.experiments.fleetrun import run_fleet
from repro.live.controller import (
    CONTROLLER_SCHEMA,
    ControllerPolicy,
    FleetController,
    PathTarget,
    shard_label,
    validate_controller_file,
    validate_controller_record,
)
from repro.obs.alerts import AlertRules, controller_alert_rules
from repro.obs.artifacts import read_ndjson
from repro.obs.export import rollup_sessions
from repro.obs.metrics import MetricsRegistry, snapshot_digest
from repro.obs.summary import (
    group_label_path,
    split_snapshot_by_label,
    split_snapshot_by_path,
)


# ------------------------------------------------------------- fixtures
class FakeClock:
    """Deterministic nanosecond clock the controller tests advance by hand."""

    def __init__(self, start_ns: int = 1_000_000_000):
        self.t = start_ns

    def now_ns(self) -> int:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += int(seconds * 1e9)


def make_config(n_slots=40, slot=0.005, p=0.3, packets=3):
    return BadabingConfig(
        probe=ProbeConfig(slot=slot, probe_size=64, packets_per_probe=packets),
        marking=MarkingConfig(tau=0.0),
        p=p,
        n_slots=n_slots,
    )


def make_target(name, faults=None):
    return PathTarget(name=name, config=make_config(), faults=faults)


def clean_report(m=100):
    """A perfectly loss-free session: M experiments, zero transitions."""
    return report_from_counter(Counter({"M": m}))


def lossy_report(m=100):
    """A session whose validator keeps rejecting the estimate (§5.4).

    The violation patterns 010/101 push the violation rate above the
    acceptability bound, so the stopping rule never fires for this path.
    """
    return report_from_counter(
        Counter({"M": m, "01": 1, "10": 1, "010": 3, "101": 3})
    )


def make_controller(paths, policy=None, **kwargs):
    clock = FakeClock()
    controller = FleetController(paths, policy=policy, clock=clock, **kwargs)
    return controller, clock


# ------------------------------------------------------------ validation
def test_policy_and_roster_validate():
    with pytest.raises(ConfigurationError):
        ControllerPolicy(budget_slots=0)
    with pytest.raises(ConfigurationError):
        ControllerPolicy(min_session_slots=0)
    with pytest.raises(ConfigurationError):
        ControllerPolicy(min_share=0.6, max_share=0.4)
    with pytest.raises(ConfigurationError):
        ControllerPolicy(target_relative_error=0.0)
    with pytest.raises(ConfigurationError):
        PathTarget(name="a/b", config=make_config())
    with pytest.raises(ConfigurationError):
        FleetController([make_target("dup"), make_target("dup")])
    with pytest.raises(ConfigurationError):
        FleetController([])


# ------------------------------------------------------------ rebalancing
def test_step_allocates_evenly_and_records_rebalance_event():
    policy = ControllerPolicy(budget_slots=600, round_slots=100, min_session_slots=40)
    registry = MetricsRegistry()
    controller, clock = make_controller(
        [make_target("a"), make_target("b"), make_target("c")],
        policy=policy,
        registry=registry,
    )
    launches = controller.step()
    # Even three-way split of the 300-slot quantum, in roster order.
    assert [d.path for d in launches] == ["a", "b", "c"]
    assert [d.n_slots for d in launches] == [100, 100, 100]
    assert all(d.round_index == 0 for d in launches)
    assert all(d.config.n_slots == d.n_slots for d in launches)
    assert controller.remaining_slots == 300
    # Everything is now in flight at max_concurrent_per_path: no-op pass.
    clock.advance(0.1)
    assert controller.step() == []
    # One rebalance event carrying the allocations plus all-path signals.
    (event,) = controller.events
    assert event["kind"] == "rebalance"
    assert validate_controller_record(event) == []
    assert [a["path"] for a in event["allocations"]] == ["a", "b", "c"]
    assert len(event["signals"]) == 3
    assert registry.counter("controller.launches").value == 3
    assert registry.counter("controller.slots_allocated").value == 300


def test_launch_seeds_are_deterministic():
    roster = [make_target("a"), make_target("b")]
    first, _ = make_controller(roster, base_seed=7)
    second, _ = make_controller(roster, base_seed=7)
    other, _ = make_controller(roster, base_seed=8)
    seeds = [d.seed for d in first.step()]
    assert seeds == [d.seed for d in second.step()]
    assert seeds != [d.seed for d in other.step()]
    assert len(set(seeds)) == len(seeds)


# ------------------------------------------------------- BUSY backpressure
def test_busy_path_waits_out_the_advertised_delay_never_sooner():
    policy = ControllerPolicy(budget_slots=400, round_slots=100, min_session_slots=40)
    controller, clock = make_controller([make_target("a")], policy=policy)
    (directive,) = controller.step()
    spent_before = controller.spent_slots
    controller.on_session_busy("a", directive.round_index, retry_after=3.0)
    # The rejected session spent no probes: fully refunded.
    assert controller.spent_slots == spent_before - directive.n_slots
    assert controller.state_of("a").busy_deferrals == 1
    busy = controller.events[-1]
    assert busy["kind"] == "busy" and busy["retry_after"] == 3.0
    assert busy["refunded_slots"] == directive.n_slots
    # Never sooner: repeated decision passes inside the window all skip.
    for _ in range(5):
        clock.advance(0.5)
        assert controller.step() == []  # 0.5s .. 2.5s after BUSY
    clock.advance(0.499_999)
    assert controller.step() == []  # 2.999999s: still inside the window
    assert controller.next_retry_in() == pytest.approx(1e-6, abs=1e-9)
    # At exactly now + retry_after the path is admitted again.
    clock.advance(0.000_001)
    (retry,) = controller.step()
    assert retry.path == "a"
    assert controller.next_retry_in() is None


def test_busy_without_hint_falls_back_to_policy_delay():
    policy = ControllerPolicy(
        budget_slots=400, round_slots=100, min_session_slots=40, retry_fallback=2.0
    )
    controller, clock = make_controller([make_target("a")], policy=policy)
    (directive,) = controller.step()
    controller.on_session_busy("a", directive.round_index, retry_after=None)
    clock.advance(1.999)
    assert controller.step() == []
    clock.advance(0.002)
    assert len(controller.step()) == 1


# --------------------------------------------------------- budget shifting
def drive_to_exhaustion(controller, clock, lossy="lossy"):
    """Synchronously complete every launch until the budget is spent."""
    round_counter = Counter()
    while True:
        launches = controller.step()
        if not launches:
            break
        for directive in launches:
            rounds = round_counter[directive.path]
            round_counter[directive.path] += 1
            if directive.path == lossy:
                # ΔF̂ stays above epsilon_f, so the fallback convergence
                # rule never fires either: the path stays hungry.
                frequency = 0.5 if rounds % 2 else 0.1
                report = lossy_report(m=directive.n_slots)
            else:
                frequency = 0.0
                report = clean_report(m=directive.n_slots)
            clock.advance(0.05)
            controller.on_session_complete(
                directive.path,
                directive.round_index,
                frequency,
                report,
                duration_seconds=0.001,
            )
        clock.advance(0.05)


def test_budget_shifts_toward_unconverged_path():
    policy = ControllerPolicy(budget_slots=2400, round_slots=100, min_session_slots=40)
    controller, clock = make_controller(
        [make_target("clean-a"), make_target("clean-b"), make_target("lossy")],
        policy=policy,
    )
    drive_to_exhaustion(controller, clock)
    controller.finalize()

    assert controller.remaining_slots < policy.min_session_slots
    assert controller.converged("clean-a") and controller.converged("clean-b")
    assert not controller.converged("lossy")

    # From the recorded decisions: once every clean path reports
    # converged, the lossy path must capture well over an even split of
    # the remaining budget — at least 30 points above 1/3.
    post, lossy_post = 0, 0
    for event in controller.events:
        if event["kind"] != "rebalance":
            continue
        others = [
            s for s in event["signals"] if s["path"] != "lossy"
        ]
        if not all(s["converged"] for s in others):
            continue
        for allocation in event["allocations"]:
            post += allocation["slots"]
            if allocation["path"] == "lossy":
                lossy_post += allocation["slots"]
    assert post > 0
    assert lossy_post / post >= 1 / 3 + 0.30
    # The converged paths keep drift-detection heartbeats alive (paid
    # from monitor credit), but only at the fixed minimum session size.
    clean_post = [
        a["slots"]
        for e in controller.events
        if e["kind"] == "rebalance"
        for a in e["allocations"]
        if a["path"] != "lossy" and a["round"] >= 2
    ]
    assert clean_post and all(s == policy.min_session_slots for s in clean_post)


def test_step_stops_when_all_paths_converge():
    policy = ControllerPolicy(budget_slots=10_000, round_slots=100, min_session_slots=40)
    controller, clock = make_controller(
        [make_target("a"), make_target("b")], policy=policy
    )
    for _ in range(2):
        for directive in controller.step():
            controller.on_session_complete(
                directive.path, directive.round_index, 0.0, clean_report(100)
            )
        clock.advance(0.1)
    assert controller.all_converged
    assert controller.step() == []
    assert controller.done
    assert controller.remaining_slots > 0  # budget left unspent, not burned


# ------------------------------------------------------------------ merge
def make_shard(seed, f_hat):
    """A fake per-session registry shard with awkward float content."""
    rng = random.Random(seed)
    shard = MetricsRegistry()
    shard.counter("probes.sent", role="sender").value = 100 + seed
    shard.counter("probes.lost").value = seed
    hist = shard.histogram("live.timing_error_seconds")
    for _ in range(50):
        # Mantissa-rich values make float-sum order dependence visible.
        hist.observe(rng.random() * 1e-3 + 1e-9)
    series = shard.series("live.frequency", role="sender")
    for i in range(5):
        series.append(i * 0.1, f_hat + i * 1e-4)
    return shard


def test_merged_digest_is_independent_of_completion_order():
    policy = ControllerPolicy(budget_slots=1200, round_slots=100, min_session_slots=40)
    controller, clock = make_controller(
        [make_target("a"), make_target("b"), make_target("c")], policy=policy
    )
    schedule = []
    for round_index in range(2):
        launches = controller.step()
        assert launches
        for directive in launches:
            clock.advance(0.05)
            controller.on_session_complete(
                directive.path,
                directive.round_index,
                0.2,
                lossy_report(directive.n_slots),
                shard=make_shard(
                    directive.seed % 1000, 0.2 + 0.01 * directive.round_index
                ),
            )
            schedule.append((directive.path, directive.round_index))
        clock.advance(0.05)

    canonical = controller.merged_digest()
    rng = random.Random(42)
    for _ in range(6):
        order = schedule[:]
        rng.shuffle(order)
        assert controller.replay_digest(order) == canonical
    # Every shard lands under its own path/session[round] series label.
    snapshot = controller.merged_registry().snapshot()
    labels = {
        key.split("session=", 1)[1].rstrip("}")
        for key in snapshot["series"]
        if "session=" in key
    }
    assert labels == {shard_label(p, r) for p, r in schedule}
    # Counters fold additively across shards.
    total_sent = sum(
        value
        for key, value in snapshot["counters"].items()
        if key.startswith("probes.sent")
    )
    assert total_sent == sum(100 + (s % 1000) for s in
                             [d["seed"] for e in controller.events
                              if e["kind"] == "rebalance"
                              for d in e["allocations"]])


def test_two_path_merge_groups_by_label_and_path():
    merged = MetricsRegistry()
    for name, f_hat in (("alpha", 0.1), ("beta", 0.4)):
        shard = make_shard(seed=len(name), f_hat=f_hat)
        merged.merge(shard, series_labels={"session": shard_label(name, 0)})
    snapshot = merged.snapshot()

    assert group_label_path("alpha/session[0]") == "alpha"
    assert group_label_path("session[3]") == "session[3]"  # bare soak label

    _shared, by_label = split_snapshot_by_label(snapshot)
    assert set(by_label) == {"alpha/session[0]", "beta/session[0]"}
    _shared, by_path = split_snapshot_by_path(snapshot)
    assert set(by_path) == {"alpha", "beta"}
    assert by_path["alpha"]["series"]  # fold keeps the shard instruments

    rows = {row["label"]: row for row in rollup_sessions(snapshot)}
    assert set(rows) == {"alpha/session[0]", "beta/session[0]"}
    assert rows["alpha/session[0]"]["f_hat"] == pytest.approx(0.1004)
    assert rows["beta/session[0]"]["f_hat"] == pytest.approx(0.4004)


# ----------------------------------------------------------- event artifact
def test_controller_event_log_roundtrip_and_validation(tmp_path):
    events_path = tmp_path / "controller.ndjson"
    policy = ControllerPolicy(budget_slots=400, round_slots=100, min_session_slots=40)
    clock = FakeClock()
    controller = FleetController(
        [make_target("a")], policy=policy, clock=clock, events_path=events_path
    )
    (directive,) = controller.step()
    controller.on_session_busy("a", directive.round_index, retry_after=1.5)
    clock.advance(1.5)
    (retry,) = controller.step()
    controller.on_session_complete("a", retry.round_index, 0.1, clean_report(100))
    controller.finalize()

    records = read_ndjson(events_path, "controller events", tolerate_truncation=True)
    assert [r["kind"] for r in records] == [
        "rebalance", "busy", "rebalance", "complete", "final",
    ]
    assert all(r["schema"] == CONTROLLER_SCHEMA for r in records)
    assert validate_controller_file(events_path) == []
    assert main(["obs", "validate", "--controller", str(events_path)]) == 0

    # Nothing may follow the single trailing ``final`` event.
    after_final = tmp_path / "after-final.ndjson"
    extra = {**records[-1], "seq": records[-1]["seq"] + 1}
    after_final.write_text(events_path.read_text() + json.dumps(extra) + "\n")
    assert validate_controller_file(after_final) == [
        "records[5]: follows the 'final' event records[4]"
    ]


def test_validate_controller_record_flags_structural_problems():
    assert validate_controller_record([]) == [
        "record: expected an object, got list"
    ]
    bad = {
        "schema": "nope/9",
        "seq": 0,
        "t": -1.0,
        "kind": "rebalance",
        "remaining_slots": -2,
        "allocations": [{"path": "a", "slots": 0, "round": 0, "seed": 1}],
    }
    problems = validate_controller_record(bad)
    for field in ("schema", "seq", "t", "remaining_slots", "allocations[0]"):
        assert any(field in p for p in problems), (field, problems)


# ------------------------------------------------------------------ alerts
def test_controller_alert_rules_fire_on_failures_busy_storm_and_stall():
    registry = MetricsRegistry()
    registry.counter("controller.launches").value = 10
    registry.counter("controller.busy_deferred").value = 6
    registry.counter("controller.completions").value = 5
    registry.counter("controller.failures").value = 1
    engine = AlertRules(rules=controller_alert_rules(stall_deadline=30.0))

    events = engine.evaluate(registry.snapshot(), wall=0.0)
    fired = {event.rule for event in events if event.state == "firing"}
    assert fired == {"controller-busy-storm", "controller-failures"}
    # Completions counter never moves again: the stall alert fires after
    # the deadline, and resolves as soon as a session completes.
    assert engine.evaluate(registry.snapshot(), wall=10.0) == []
    stale = engine.evaluate(registry.snapshot(), wall=31.0)
    assert [e.rule for e in stale if e.state == "firing"] == ["controller-stalled"]
    registry.counter("controller.completions").inc()
    resolved = engine.evaluate(registry.snapshot(), wall=32.0)
    assert [e.rule for e in resolved if e.state == "resolved"] == [
        "controller-stalled"
    ]


# ------------------------------------------------------ asyncio acceptance
def test_three_path_loopback_fleet_shifts_budget_and_replays_bytewise():
    """The issue's acceptance scenario, scaled down for test wall time.

    Three loopback paths, one behind a heavy-loss Gilbert impairment;
    the clean paths converge early, after which the controller must
    steer ≥30 points above an even split of the remaining budget to the
    lossy path — and the canonical merged registry must be byte-identical
    to a serial replay of the shards in observed completion order.
    """
    paths = [
        make_target("clean-a"),
        make_target("clean-b"),
        make_target("lossy", faults="heavy-loss"),
    ]
    policy = ControllerPolicy(
        budget_slots=1200, round_slots=60, min_session_slots=40
    )
    registry = MetricsRegistry()

    result = asyncio.run(
        run_fleet(
            paths,
            policy=policy,
            base_seed=1,
            registry=registry,
            rebalance_interval=0.05,
            max_wall_seconds=90.0,
        )
    )
    assert not result.deadline_hit
    assert not result.failures, [o.error for o in result.failures]
    assert result.ok

    # Byte-identical replay: canonical roster/round merge == serial
    # chronological re-merge of the same shards.
    assert result.merged_digest == result.replay_digest
    assert result.completion_order  # sanity: sessions actually completed
    controller = result.controller
    assert result.merged_digest == snapshot_digest(
        controller.merged_registry(order=result.completion_order).snapshot()
    )

    # The lossy path kept measuring while the clean paths idled.
    lossy = result.path_summary["lossy"]
    assert lossy["f_hat"] is not None and lossy["f_hat"] > 0.02
    post, lossy_post = 0, 0
    for event in result.events:
        if event["kind"] != "rebalance":
            continue
        others = [s for s in event["signals"] if s["path"] != "lossy"]
        if not all(s["converged"] for s in others):
            continue
        for allocation in event["allocations"]:
            post += allocation["slots"]
            if allocation["path"] == "lossy":
                lossy_post += allocation["slots"]
    assert post > 0, "clean paths never converged within the budget"
    assert lossy_post / post >= 1 / 3 + 0.30

    # The event stream is a valid repro.live.controller/1 artifact.
    problems = []
    for index, record in enumerate(result.events):
        problems.extend(validate_controller_record(record, f"events[{index}]"))
    assert problems == []
    assert result.events[-1]["kind"] == "final"
