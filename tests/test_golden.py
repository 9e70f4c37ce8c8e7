"""Pinned golden digests: the event core must stay exact.

Two small cells, one per way the network layer is used (CBR on a clean
drop-tail FIFO; Reno flows on a mildly faulted path with timer cancels),
are pinned at their event counts, metrics-snapshot digest and estimate.
A change to the simulator, links, queues or traffic that reorders a
single event moves at least one of these. The values hold on every
supported Python version (3.9-3.12).
"""

import pytest

from repro.experiments import run_badabing
from repro.obs.metrics import MetricsRegistry, snapshot_digest

_COUNTS_CBR = {"00": 576, "01": 1, "10": 1, "11": 15, "R": 17, "S": 2}
_COUNTS_TCP = {"00": 575, "01": 2, "10": 3, "11": 13, "R": 18, "S": 5}

GOLDEN = {
    "episodic_cbr": (
        dict(warmup=2.0, scenario_kwargs={"mean_spacing": 2.0}),
        28080,
        3,
        "94ededbe68faae5647bc58d282dcd65a96064be6b171fd0cf46d18dd73f1b5e5",
        (0.026981450252951095, 16.0, 593, _COUNTS_CBR),
    ),
    "infinite_tcp": (
        dict(warmup=10.0, faults="mild"),
        126981,
        6345,
        "08966b4286e9f846c033deb881f9b0d03444b9e17426bb6a00f8c2a460b54514",
        (0.026981450252951095, 6.2, 593, _COUNTS_TCP),
    ),
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_golden_cell(scenario):
    kwargs, events, cancelled, digest, estimate = GOLDEN[scenario]
    registry = MetricsRegistry()
    result, _ = run_badabing(
        scenario, p=0.3, n_slots=2000, seed=3, metrics=registry, **kwargs
    )
    snapshot = registry.snapshot()
    assert snapshot["counters"]["sim.events_processed"] == events
    assert snapshot["counters"]["sim.events_cancelled"] == cancelled
    est = result.estimate
    nonzero = {key: n for key, n in est.counts.items() if n}
    assert (est.frequency, est.duration_slots, est.n_experiments, nonzero) == estimate
    assert (est.r_hat, est.improved) == (None, False)
    assert snapshot_digest(snapshot) == digest
