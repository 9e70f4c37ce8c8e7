"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cbr_cell --seed 1 --seconds 30 --trace 0

``--trace 0`` times ops with nothing installed and reports the end-to-end
metrics; ``--trace 1`` alternates untraced ops with ops timed layer by
layer (see ``layers.py``) and reports the per-layer metrics, including
the tracing overhead. Metric names, units and directions come from
``BENCHMARK.json``. The last line of standard output is one JSON object;
the lines before it are a report for people.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # start of set-up when run with --setup-only

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable, Dict, List, Optional  # noqa: E402

import layers  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh-process set-ups per run; setup_s is their median.
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 150


def _import_benchmark() -> Any:
    """Import the workloads against this checkout's ``src/``, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program to benchmark: {SRC / 'repro'} is missing")
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro
    import workloads

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"error: imported repro from {repro.__file__}, not from {SRC}")
    return workloads


def _workdir() -> "tempfile.TemporaryDirectory[str]":
    return tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT)


def _setup_only(name: str, seed: int) -> None:
    """Child side of setup_s: imports plus input generation, then exit."""
    workloads = _import_benchmark()
    with _workdir() as workdir:
        workloads.setup_cases(workloads.WORKLOADS[name], seed, Path(workdir))
        elapsed = time.perf_counter() - T0
    print(json.dumps({"setup_s": elapsed}))


def _setup_seconds(name: str, seed: int) -> float:
    """Wall time of one set-up in a fresh interpreter."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])["setup_s"]


def _git_head() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` (None outside a git tree)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args: argparse.Namespace) -> Dict[str, Any]:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_head": _git_head(),
    }


@dataclass
class OpRecord:
    wall_s: float
    cpu_s: float
    #: Host slowdown during the op (see hostspeed.py); times divided by it
    #: are at the reference host speed.
    slowdown: float
    case: int
    traced: bool
    layer_seconds: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


class Runner:
    """Closed loop over one workload: one op at a time, every op checked."""

    def __init__(self, workload: Any, cases: List[Any]) -> None:
        self.workload = workload
        self.cases = cases
        #: Summary of each case's first successful op, which later ops of
        #: the case must repeat exactly.
        self.references: Dict[int, Any] = {}
        self.ops: List[OpRecord] = []

    def op(self, case: int, traced: bool) -> OpRecord:
        trace = layers.LayerTrace() if traced else None
        gc.collect()
        output = None
        problems: List[str] = []
        with trace.installed() if trace else nullcontext(), HostSpeed() as speed:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                output = self.workload.run(self.cases[case])
            except Exception:  # an op that raises counts as failed, run goes on
                problems.append("raised: " + traceback.format_exc().strip())
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
        record = OpRecord(wall, cpu, speed.slowdown, case, traced, problems=problems)
        if output is not None:
            try:
                summary = self.workload.summarize(self.cases[case], output)
            except Exception:  # unreadable outputs fail the op, not the run
                record.problems.append("summary raised: " + traceback.format_exc().strip())
            else:
                record.problems += self._check(case, summary)
        if trace is not None:
            record.layer_seconds = dict(trace.seconds)
            record.problems += [
                f"layer {layer} recorded no call: entry point renamed or bypassed"
                for layer in self.workload.layers
                if trace.calls[layer] == 0
            ]
        for problem in record.problems:
            print(f"op {len(self.ops)} FAILED: {problem}", file=sys.stderr)
        self.ops.append(record)
        return record

    def _check(self, case: int, summary: Any) -> List[str]:
        problems = list(summary.problems)
        if not (math.isfinite(summary.frequency) and 0.0 <= summary.frequency <= 1.0):
            problems.append(f"F-hat {summary.frequency!r} is not a frequency")
        reference = self.references.setdefault(case, summary)
        if summary.digest != reference.digest:
            problems.append(f"digest differs from the first op of case {case}")
        if summary.counts != reference.counts:
            moved = sorted(
                key
                for key in summary.counts.keys() | reference.counts.keys()
                if summary.counts.get(key) != reference.counts.get(key)
            )
            problems.append(f"deterministic counts changed: {moved}")
        return problems

    def measure(self, seconds: float, traced: bool) -> None:
        """Ops back to back for ``seconds``, cycling through the cases; a
        traced op of the same case follows each untraced one when
        ``traced``. No warm-up: lazy set-up slows only the first op, which
        the medians shrug off."""
        start = time.perf_counter()
        turn = 0
        while time.perf_counter() - start < seconds:
            case = turn % len(self.cases)
            self.op(case, traced=False)
            if traced:
                self.op(case, traced=True)
            turn += 1

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.problems)


def _quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def per_case(ops: List[OpRecord], value: Callable[[OpRecord], float]) -> float:
    """Mean over the cases of the median of ``value`` over each case's ops."""
    by_case: Dict[int, List[float]] = {}
    for op in ops:
        by_case.setdefault(op.case, []).append(value(op))
    return statistics.fmean(statistics.median(values) for values in by_case.values())


def normalized_wall(op: OpRecord) -> float:
    return op.wall_s / op.slowdown


def slots_per_s(workload: Any, ops: List[OpRecord]) -> float:
    """n_slots / median op wall, at the reference host speed."""
    return workload.n_slots / per_case(ops, normalized_wall)


def end_to_end(workload: Any, ops: List[OpRecord], setup: List[float]) -> Dict[str, float]:
    return {
        "slots_per_s": slots_per_s(workload, ops),
        "cpu_s_per_op": per_case(ops, lambda op: op.cpu_s / op.slowdown),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


#: Per-layer counts a workload does not produce read 0.
COUNTS = (
    "net.events", "net.events_cancelled", "net.heap_peak", "net.queue_enqueued",
    "net.queue_dropped", "net.link_tx", "net.fault_drops", "analysis.episodes",
    "core.probes", "core.probe_loss_ratio", "core.coverage", "io.probes_parsed",
)


def per_layer(runner: Runner) -> Dict[str, float]:
    """Layer times at the reference host speed; exact counts and errors
    as means over the cases."""
    ops = runner.ops
    traced = [op for op in ops if op.traced]
    metrics: Dict[str, float] = {
        f"{layer}_s": per_case(traced, lambda op, layer=layer: op.layer_seconds[layer] / op.slowdown)
        for layer in layers.LAYERS
    }
    references = list(runner.references.values())

    def mean(value: Callable[[Any], float]) -> float:
        return statistics.fmean(value(reference) for reference in references)

    for name in COUNTS:
        metrics[name] = mean(lambda reference: reference.counts.get(name, 0))
    events = metrics["net.events"]
    metrics["net.ns_per_event"] = metrics["net.sim_run_s"] / events * 1e9 if events else 0.0
    load_s = metrics["io.load_s"]
    loaded_mb = mean(lambda reference: reference.bytes_loaded) / 1e6
    metrics["io.load_mb_per_s"] = loaded_mb / load_s if load_s else 0.0
    metrics["trace.unattributed_s"] = per_case(
        traced, lambda op: (op.wall_s - sum(op.layer_seconds.values())) / op.slowdown
    )
    # Each traced op follows an untraced op of its case: compare the pair.
    untraced_before = {id(op): ops[i - 1] for i, op in enumerate(ops) if op.traced}
    metrics["trace.overhead_ratio"] = per_case(
        traced, lambda op: normalized_wall(op) / normalized_wall(untraced_before[id(op)])
    )
    metrics["f_rel_err"] = mean(lambda reference: reference.f_rel_err)
    metrics["d_rel_err"] = mean(lambda reference: reference.d_rel_err)
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        _setup_only(args.workload, args.seed)
        return 0
    workloads = _import_benchmark()
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}[workload.name]
    print(f"perfbench {workload.name}: {why}")
    print("env " + json.dumps(environment(args)))

    setup = [_setup_seconds(workload.name, args.seed) for _ in range(SETUP_SAMPLES)]
    with _workdir() as workdir:
        cases = workloads.setup_cases(workload, args.seed, Path(workdir))
        for case in cases:
            workload.prepare_checks(case)
        runner = Runner(workload, cases)
        runner.measure(args.seconds, traced=bool(args.trace))
    if not runner.references:
        sys.exit(f"error: all {len(runner.ops)} ops failed; no outputs to measure")
    if args.trace:
        metrics = per_layer(runner)
    else:
        metrics = end_to_end(workload, runner.ops, setup)
    if set(metrics) != set(declared):
        sys.exit(f"error: computed metrics {sorted(metrics)} != BENCHMARK.json {sorted(declared)}")

    untraced = [op for op in runner.ops if not op.traced]
    q1, median, q3 = _quartiles([op.wall_s for op in untraced])
    print(
        f"ops: {len(runner.ops)} attempted, {runner.failed} failed; raw untraced op "
        f"wall median {median:.4f} s (q1 {q1:.4f}, q3 {q3:.4f}, n={len(untraced)}); "
        f"median host slowdown {statistics.median(op.slowdown for op in untraced):.3f}"
    )
    references = list(runner.references.values())
    report = dict(metrics)
    if not args.trace:
        # Reported but not bounded: accuracy varies by seed far more than
        # any bound allows, and fail_rate is 0 on correct code.
        report["f_rel_err"] = statistics.fmean(r.f_rel_err for r in references)
        report["d_rel_err"] = statistics.fmean(r.d_rel_err for r in references)
        report["fail_rate"] = runner.failed / len(runner.ops)
    for name, value in report.items():
        unit = declared.get(name, {}).get("unit", "ratio")
        print(f"  {name:<24} {value:>16.6f} {unit}")
    if args.trace:
        traced_wall = statistics.median(op.wall_s / op.slowdown for op in runner.ops if op.traced)
        share = 1.0 - metrics["trace.unattributed_s"] / traced_wall
        print(f"layers account for {share:.2%} of the median traced op wall")
    for case, reference in sorted(runner.references.items()):
        print(f"case {case} digest {reference.digest} (identical on every op of the case)")

    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": len(runner.ops),
        "failed": runner.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": declared[name]["unit"]}
            for name in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
