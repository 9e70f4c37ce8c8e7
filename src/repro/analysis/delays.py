"""One-way-delay analytics.

The §6.1 marking rule is driven by one-way delays, so understanding a
measurement's OWD distribution is part of calibrating it (choosing alpha
against the path's real queueing range, spotting clock problems, checking
the FIFO assumption). These helpers work on the ``(send_time, owd)``
samples a probe stream produces:

* :func:`owd_samples` — flatten probe records into delay samples,
* :func:`delay_floor` — propagation-floor estimate (minimum filtering),
* :func:`queueing_delays` — subtract the floor: pure queueing time,
* :class:`DelayDistribution` — quantiles/summary over a sample set,
* :func:`congestion_delay_ratio` — how separable "near loss" delays are
  from background delays (a direct health check of the alpha threshold).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence, Tuple

from repro.errors import EstimationError

if TYPE_CHECKING:
    from repro.core.records import ProbeRecord


def owd_samples(probes: Sequence[ProbeRecord]) -> List[Tuple[float, float]]:
    """All (send_time, owd) pairs from a probe-record stream."""
    return [(probe.send_time, owd) for probe in probes for owd in probe.owds]


def delay_floor(samples: Sequence[Tuple[float, float]]) -> float:
    """Propagation + serialization floor: the minimum observed OWD.

    With even a moderate number of samples the minimum is within one
    serialization time of the true floor on an uncongested instant.
    """
    if not samples:
        raise EstimationError("no delay samples")
    return min(owd for _t, owd in samples)


def queueing_delays(samples: Sequence[Tuple[float, float]]) -> List[float]:
    """Per-sample queueing time: OWD minus the observed floor."""
    floor = delay_floor(samples)
    return [owd - floor for _t, owd in samples]


@dataclass(frozen=True)
class DelayDistribution:
    """Quantile summary of a delay sample set (values in seconds)."""

    n: int
    minimum: float
    p50: float
    p90: float
    p99: float
    maximum: float
    mean: float

    def spread(self) -> float:
        """max - min: the observable queueing range."""
        return self.maximum - self.minimum


def _quantile(sorted_values: List[float], q: float) -> float:
    position = q * (len(sorted_values) - 1)
    low = int(math.floor(position))
    high = int(math.ceil(position))
    if low == high:
        return sorted_values[low]
    weight = position - low
    return sorted_values[low] * (1 - weight) + sorted_values[high] * weight


def summarize_delays(values: Sequence[float]) -> DelayDistribution:
    """Build a :class:`DelayDistribution` from raw delay values."""
    if not values:
        raise EstimationError("no delay samples")
    ordered = sorted(values)
    return DelayDistribution(
        n=len(ordered),
        minimum=ordered[0],
        p50=_quantile(ordered, 0.50),
        p90=_quantile(ordered, 0.90),
        p99=_quantile(ordered, 0.99),
        maximum=ordered[-1],
        mean=sum(ordered) / len(ordered),
    )


def congestion_delay_ratio(
    probes: Sequence[ProbeRecord], tau: float
) -> float:
    """Median OWD near losses divided by median OWD far from losses.

    A calibration health check for the §6.1 rule: ratios well above 1
    mean delay cleanly separates congested from clear periods (alpha has
    room to work); a ratio near 1 means delay carries little signal on
    this path (e.g. tiny buffers) and loss-only marking is all there is.

    Raises :class:`EstimationError` when either class of probe is absent.
    """
    if tau < 0:
        raise EstimationError(f"tau must be non-negative, got {tau}")
    loss_times = [probe.send_time for probe in probes if probe.lost]
    if not loss_times:
        raise EstimationError("no losses observed: ratio undefined")
    near: List[float] = []
    far: List[float] = []
    for probe in probes:
        owd = probe.max_owd
        if owd is None:
            continue
        distance = min(abs(probe.send_time - t) for t in loss_times)
        (near if distance <= tau else far).append(owd)
    if not near or not far:
        raise EstimationError("need probes both near and far from losses")
    near.sort()
    far.sort()
    return _quantile(near, 0.5) / _quantile(far, 0.5)
