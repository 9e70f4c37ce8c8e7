"""Sensitivity self-test: the benchmark must flag a 1.3x slower
``Simulator.run`` on ``cbr_cell`` (where the simulator is ~90% of an op)
and must not flag it on ``analyze_trace`` (which never runs the simulator).

The slowdown is installed from the benchmark side; ``src/`` is untouched.
Run from the repository root (about two minutes)::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SLOWDOWN = 1.3
SEED = 7


def _slowed(original):
    """``original`` followed by a busy wait of 0.3x its own duration."""

    def slowed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            now = time.perf_counter()
            deadline = now + (SLOWDOWN - 1.0) * (now - start)
            while time.perf_counter() < deadline:
                pass

    return slowed


def _slots_per_s_ratio(name: str, workdir: Path, pairs: int) -> float:
    """slots_per_s with the slowdown / without, over alternating ops."""
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(SEED, workdir)
    workload.prepare_checks(inputs)
    runner = run.Runner(workload, [inputs])
    runner.op(0, traced=False)  # warm-up, and the digest reference
    base, slow = [], []
    for pair in range(pairs):
        # Alternate which side goes first so a drifting host favours neither.
        for slowed in (False, True) if pair % 2 == 0 else (True, False):
            if slowed:
                with layers.patched("repro.net.simulator", "Simulator.run", _slowed):
                    slow.append(runner.op(0, traced=False))
            else:
                base.append(runner.op(0, traced=False))
    assert runner.failed == 0, [op.problems for op in runner.ops if op.problems]
    return run.slots_per_s(workload, slow) / run.slots_per_s(workload, base)


def test_sim_run_slowdown_is_flagged_on_cbr_cell_only(tmp_path: Path) -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "slots_per_s")
    # The cbr_cell ratio sits near 0.80 on the reference machine, a few
    # noise widths below the threshold, so it gets more pairs;
    # analyze_trace never runs the simulator and expects 1.0.
    cbr = _slots_per_s_ratio("cbr_cell", tmp_path, pairs=12)
    trace = _slots_per_s_ratio("analyze_trace", tmp_path, pairs=5)
    assert cbr < 1.0 - bound, f"cbr_cell slots_per_s ratio {cbr:.3f} not flagged"
    assert trace >= 1.0 - bound, f"analyze_trace slots_per_s ratio {trace:.3f} flagged"
