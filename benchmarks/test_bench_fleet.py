"""Fleet reflector overhead guard: 1000 tenants vs the single-session path.

The multi-tenant layer (admission bookkeeping, per-tenant token buckets,
watchdog-ready timestamps) sits on the reflector's per-datagram hot
path. This benchmark feeds the same number of probe datagrams through a
:class:`~repro.live.fleet.FleetReflectorProtocol` holding 1000 live
sessions and through a plain single-session
:class:`~repro.live.reflector.ReflectorProtocol`, takes the min of
several timed repetitions each, and fails if the fleet path costs more
than 2× per datagram — the ceiling the hardening work promised.
"""

from __future__ import annotations

import time

from repro.config import BadabingConfig, MarkingConfig, ProbeConfig
from repro.live import wire
from repro.live.fleet import FleetReflectorProtocol
from repro.live.reflector import ReflectorProtocol
from repro.live.session import make_session_id, spec_for

N_SESSIONS = 1000
PACKETS_PER_SESSION = 30
TOTAL_PACKETS = N_SESSIONS * PACKETS_PER_SESSION
REPEATS = 3
MAX_RATIO = 2.0


class _SteppingClock:
    """Monotonic fake clock advancing a fixed step per reading."""

    def __init__(self, step_ns: int = 2_000):
        self.t = 1_000_000_000
        self.step_ns = step_ns

    def now_ns(self) -> int:
        self.t += self.step_ns
        return self.t


class _NullTransport:
    def sendto(self, payload, addr=None):
        pass


def _config() -> BadabingConfig:
    return BadabingConfig(
        probe=ProbeConfig(slot=0.005, probe_size=64, packets_per_probe=3),
        marking=MarkingConfig(tau=0.0),
        p=0.3,
        n_slots=200_000,
    )


def _session_datagrams(seed: int, config: BadabingConfig, n_packets: int):
    """HELLO plus ``n_packets`` unique probe datagrams for one tenant."""
    spec = spec_for(config, seed)
    session_id = make_session_id(seed)
    hello = wire.encode_hello(session_id, spec, 0)
    probes = [
        wire.encode_probe(session_id, i, i // 3, i % 3, 3, i * 1_000)
        for i in range(n_packets)
    ]
    return hello, probes


def _deliver(protocol, hellos, flood):
    """Register every tenant untimed, then time the probe flood."""
    addr = ("127.0.0.1", 40000)
    for hello in hellos:
        protocol.datagram_received(hello, addr)
    received = protocol.datagram_received
    started = time.perf_counter()
    for datagram in flood:
        received(datagram, addr)
    return time.perf_counter() - started


def _timed_fleet(sessions):
    protocol = FleetReflectorProtocol(clock=_SteppingClock())
    protocol.connection_made(_NullTransport())
    # Interleave tenants round-robin: the worst realistic arrival order
    # for any per-session cache locality the protocol might rely on.
    flood = [
        probes[index]
        for index in range(PACKETS_PER_SESSION)
        for _hello, probes in sessions
    ]
    elapsed = _deliver(protocol, [h for h, _ in sessions], flood)
    assert len(protocol.sessions) == N_SESSIONS
    assert protocol.rate_limited_total == 0  # honest tenants pass untouched
    assert protocol.probes_received_total == TOTAL_PACKETS
    return elapsed


def _timed_single(session):
    protocol = ReflectorProtocol(clock=_SteppingClock())
    protocol.connection_made(_NullTransport())
    hello, probes = session
    # Same datagram count as the fleet side, through one session.
    elapsed = _deliver(protocol, [hello], probes)
    assert protocol.probes_received_total == TOTAL_PACKETS
    return elapsed


def test_fleet_per_datagram_overhead_within_budget(archive):
    config = _config()
    sessions = [
        _session_datagrams(seed, config, PACKETS_PER_SESSION)
        for seed in range(1, N_SESSIONS + 1)
    ]
    single = _session_datagrams(N_SESSIONS + 1, config, TOTAL_PACKETS)
    # Warm allocator/caches once untimed, then interleave the two modes.
    _timed_single(single)
    fleet_s = single_s = float("inf")
    for _ in range(REPEATS):
        single_s = min(single_s, _timed_single(single))
        fleet_s = min(fleet_s, _timed_fleet(sessions))
    ratio = fleet_s / single_s
    report = (
        f"fleet reflector per-datagram overhead "
        f"({N_SESSIONS} sessions × {PACKETS_PER_SESSION} packets, "
        f"min of {REPEATS}):\n"
        f"  single-session path: {single_s * 1e9 / TOTAL_PACKETS:8.1f} ns/datagram\n"
        f"  fleet path:          {fleet_s * 1e9 / TOTAL_PACKETS:8.1f} ns/datagram\n"
        f"  ratio: {ratio:.3f}x (budget {MAX_RATIO:.1f}x)"
    )
    archive("bench_fleet", report)
    assert ratio <= MAX_RATIO, report
