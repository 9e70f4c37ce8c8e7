"""Measurement persistence and offline re-analysis.

The real BADABING tool separates collection from estimation: the receiver
"collects the probe packets and reports the loss characteristics after a
specified period of time". This subpackage gives the reproduction the same
property: a finished measurement (the experiment schedule plus the joined
probe records) can be saved to a JSON-lines trace and re-analyzed later
under different marking parameters, estimators, or validation thresholds —
without re-running the simulation.
"""

from repro.io.traces import (
    Measurement,
    TraceDiagnostic,
    TraceWriter,
    load_measurement,
    reestimate,
    save_measurement,
)

__all__ = [
    "Measurement",
    "TraceDiagnostic",
    "TraceWriter",
    "load_measurement",
    "reestimate",
    "save_measurement",
]
