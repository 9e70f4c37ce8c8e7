"""Tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.net.simulator import Simulator, _stable_seed


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(0.3, order.append, "c")
    sim.schedule(0.1, order.append, "a")
    sim.schedule(0.2, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []
    for tag in ("first", "second", "third"):
        sim.schedule(1.0, order.append, tag)
    sim.run()
    assert order == ["first", "second", "third"]


def test_clock_advances_to_event_times():
    sim = Simulator()
    seen = []
    sim.schedule(0.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [0.5]
    assert sim.now == 0.5


def test_run_until_is_inclusive_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "at-1")
    sim.schedule(2.0, fired.append, "at-2")
    sim.run(until=1.0)
    assert fired == ["at-1"]
    assert sim.now == 1.0
    sim.run(until=3.0)
    assert fired == ["at-1", "at-2"]
    # Clock advances to `until` even though the queue drained earlier.
    assert sim.now == 3.0


def test_events_scheduled_during_run_are_dispatched():
    sim = Simulator()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            sim.schedule(0.1, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert seen == [0, 1, 2, 3]


def test_cancelled_events_do_not_fire():
    sim = Simulator()
    seen = []
    event = sim.schedule(0.5, seen.append, "no")
    sim.schedule(0.6, seen.append, "yes")
    event.cancel()
    sim.run()
    assert seen == ["yes"]


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(0.5, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()


def test_scheduling_into_the_past_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_max_events_limits_dispatch():
    sim = Simulator()
    seen = []
    for i in range(10):
        sim.schedule(0.1 * (i + 1), seen.append, i)
    sim.run(max_events=4)
    assert seen == [0, 1, 2, 3]


def test_pending_counts_uncancelled():
    sim = Simulator()
    keep = sim.schedule(1.0, lambda: None)
    drop = sim.schedule(2.0, lambda: None)
    drop.cancel()
    assert sim.pending() == 1
    assert keep is not drop


def test_rng_streams_are_deterministic_per_seed_and_label():
    values_a = Simulator(seed=42).rng("x").random()
    values_b = Simulator(seed=42).rng("x").random()
    assert values_a == values_b


def test_rng_streams_differ_across_labels_and_seeds():
    sim = Simulator(seed=42)
    assert sim.rng("x").random() != sim.rng("y").random()
    assert Simulator(seed=1).rng("x").random() != Simulator(seed=2).rng("x").random()


def test_rng_returns_same_stream_for_same_label():
    sim = Simulator()
    assert sim.rng("a") is sim.rng("a")


def test_stable_seed_independent_of_hash_randomization():
    # FNV-1a over the bytes: fixed forever, so runs are reproducible across
    # interpreter invocations.
    assert _stable_seed(1, "badabing") == _stable_seed(1, "badabing")
    assert _stable_seed(1, "a") != _stable_seed(1, "b")


def test_events_processed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(0.1 * (i + 1), lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_reentrant_run_rejected():
    sim = Simulator()

    def nested():
        sim.run()

    sim.schedule(0.1, nested)
    with pytest.raises(SimulationError):
        sim.run()


def test_run_returns_dispatch_count():
    sim = Simulator()
    for i in range(5):
        sim.schedule(0.1 * (i + 1), lambda: None)
    assert sim.run() == 5
    assert sim.run() == 0  # drained


def test_budget_exhaustion_is_exposed():
    sim = Simulator()
    for i in range(10):
        sim.schedule(0.1 * (i + 1), lambda: None)
    dispatched = sim.run(max_events=4)
    assert dispatched == 4
    assert sim.budget_exhausted
    # Finishing the queue clears the flag.
    assert sim.run() == 6
    assert not sim.budget_exhausted


def test_budget_exactly_sufficient_is_not_exhausted():
    sim = Simulator()
    for i in range(4):
        sim.schedule(0.1 * (i + 1), lambda: None)
    sim.run(max_events=4)
    assert not sim.budget_exhausted


def test_budget_with_until_ignores_events_beyond_until():
    sim = Simulator()
    sim.schedule(0.1, lambda: None)
    sim.schedule(5.0, lambda: None)  # beyond until: not runnable this call
    sim.run(until=1.0, max_events=1)
    assert not sim.budget_exhausted
    assert sim.now == 1.0


def test_exhausted_run_does_not_jump_clock_past_pending_events():
    sim = Simulator()
    fired = []
    sim.schedule(0.1, fired.append, 1)
    sim.schedule(0.2, fired.append, 2)
    sim.run(until=1.0, max_events=1)
    assert sim.budget_exhausted
    assert sim.now == pytest.approx(0.1)  # not advanced to until
    sim.run(until=1.0)
    assert fired == [1, 2]
    assert sim.now == 1.0


def test_event_cancelled_by_earlier_same_time_event_never_fires():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: victim.cancel())
    victim = sim.schedule(1.0, seen.append, "victim")
    sim.schedule(1.0, seen.append, "after")
    assert sim.run() == 2
    assert seen == ["after"]
    assert sim.metrics.counter("sim.events_cancelled").value == 1


def test_budget_not_exhausted_when_only_cancelled_events_remain():
    sim = Simulator()
    sim.schedule(0.1, lambda: None)
    for delay in (0.2, 0.3):
        sim.schedule(delay, lambda: None).cancel()
    sim.schedule(5.0, lambda: None)  # live, but beyond until
    sim.run(until=1.0, max_events=1)
    assert not sim.budget_exhausted
    assert sim.now == 1.0


def test_same_time_events_with_unorderable_args_keep_schedule_order():
    # Heap entries tie on time, so only the sequence number may be compared:
    # comparing the callbacks or these args would raise TypeError.
    sim = Simulator()
    seen = []
    payloads = [object(), {"b": 1}, object(), {"a": 2}, object()]
    for payload in payloads:
        sim.schedule(1.0, lambda item: seen.append(item), payload)
    for payload in payloads:
        sim.schedule_at(1.0, seen.append, payload)
    sim.run()
    assert [id(item) for item in seen] == [id(item) for item in payloads * 2]


def test_cancel_after_firing_is_harmless():
    sim = Simulator()
    seen = []
    event = sim.schedule(0.5, seen.append, "fired")
    sim.schedule(1.0, seen.append, "later")
    sim.run(until=0.7)
    assert (event.time, event.cancelled) == (0.5, False)
    event.cancel()
    assert sim.pending() == 1
    sim.run()
    assert seen == ["fired", "later"]
    assert sim.metrics.counter("sim.events_cancelled").value == 0
