"""Live-wire probing runtime: BADABING over real UDP sockets.

Everything else in this repository measures a *simulated* path; this
subpackage runs the identical geometric probe process against a real
network using asyncio UDP endpoints and the monotonic wall clock:

* :mod:`repro.live.wire` — the compact binary wire format (30-byte
  header, fuzz-resistant decoding),
* :mod:`repro.live.session` — spec quantization, schedule regeneration,
  and the send/receive log join shared by both ends,
* :mod:`repro.live.sender` — the schedule walker (absolute-deadline
  pacing, graceful budget/Ctrl-C degradation),
* :mod:`repro.live.reflector` — the crash-proof echo/sink far end,
* :mod:`repro.live.fleet` — the multi-tenant hardening layer (admission
  control, idle eviction, token-bucket backpressure, session watchdog)
  and the many-session loopback soak harness,
* :mod:`repro.live.impair` — deterministic receiver-side loss emulation
  for loopback testing,
* :mod:`repro.live.runtime` — orchestration, streaming validation, and
  the synchronous ``live_send`` / ``live_reflect`` / ``live_loopback``
  entry points behind the CLI,
* :mod:`repro.live.controller` — the adaptive fleet controller: a
  deterministic, fake-clock-drivable rebalancing loop that spends one
  global probe budget across a roster of paths, weighted toward the
  ones whose §5.4 validator signals have not converged (asyncio driver
  in :mod:`repro.experiments.fleetrun`).

Estimation never forks: live records funnel into the same
:func:`repro.core.badabing.assemble_result` path as simulator runs, so a
live result is a plain :class:`~repro.core.badabing.BadabingResult` that
``analyze``, ``obs audit``, and the report tooling consume unchanged.
"""

from repro.live.controller import (
    CONTROLLER_SCHEMA,
    ControllerPolicy,
    FleetController,
    LaunchDirective,
    PathTarget,
    shard_label,
    validate_controller_file,
    validate_controller_record,
)
from repro.live.fleet import (
    FleetLoopbackResult,
    FleetPolicy,
    FleetReflectorProtocol,
    SessionReport,
    TokenBucket,
    fleet_loopback,
    run_fleet_loopback,
    start_fleet_reflector,
)
from repro.live.impair import ReceiverImpairment, bernoulli_drop, build_impairment
from repro.live.reflector import ReflectorProtocol, ReflectorSession, start_reflector
from repro.live.runtime import (
    LiveRunResult,
    ReflectorSummary,
    StreamingMonitor,
    live_loopback,
    live_reflect,
    live_send,
    run_live_loopback,
    run_live_reflector,
    run_live_send,
)
from repro.live.sender import LiveSender, SenderProtocol, SenderStats, open_sender
from repro.live.session import (
    config_from_spec,
    make_session_id,
    probe_records_from_arrivals,
    probe_records_from_logs,
    schedule_from_spec,
    spec_for,
)
from repro.live.wire import ProbeHeader, SessionSpec

__all__ = [
    "CONTROLLER_SCHEMA",
    "ControllerPolicy",
    "FleetController",
    "LaunchDirective",
    "PathTarget",
    "shard_label",
    "validate_controller_file",
    "validate_controller_record",
    "FleetLoopbackResult",
    "FleetPolicy",
    "FleetReflectorProtocol",
    "LiveRunResult",
    "LiveSender",
    "SessionReport",
    "TokenBucket",
    "fleet_loopback",
    "run_fleet_loopback",
    "start_fleet_reflector",
    "ProbeHeader",
    "ReceiverImpairment",
    "ReflectorProtocol",
    "ReflectorSession",
    "ReflectorSummary",
    "SenderProtocol",
    "SenderStats",
    "SessionSpec",
    "StreamingMonitor",
    "bernoulli_drop",
    "build_impairment",
    "config_from_spec",
    "live_loopback",
    "live_reflect",
    "live_send",
    "make_session_id",
    "open_sender",
    "probe_records_from_arrivals",
    "probe_records_from_logs",
    "run_live_loopback",
    "run_live_reflector",
    "run_live_send",
    "schedule_from_spec",
    "spec_for",
    "start_reflector",
]
