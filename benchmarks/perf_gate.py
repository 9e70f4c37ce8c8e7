"""Performance gate over the repository benchmark (``perfbench/``).

The gate does no timing of its own: it runs ``perfbench/run.py`` and
checks two things.

* **Counts.** One ``--trace 1`` run per workload, seed 1, on this
  checkout must report ``correct: true`` and a digest for every case.
  Its deterministic counts (``COUNTS`` in ``perfbench/run.py``),
  ``f_rel_err``, ``d_rel_err`` and case digests must *equal* the
  committed ``benchmarks/baselines/perfbench_counts.json``. They carry no
  noise, so the check is equality. ``--record`` rewrites the record
  instead; a change that moves a count says why in CHANGES.md.
* **Times.** ``PAIRS`` alternating pairs of ``--trace 0`` runs, the
  ``--parent`` checkout against this one, on each workload. The gate
  fails when this checkout's median ``slots_per_s``, ``cpu_s_per_op`` or
  ``peak_rss_mb`` is worse than the parent's by more than that metric's
  bound in ``BENCHMARK.json``. ``setup_s`` is printed but not gated: it
  is raw wall time, not normalized for host speed. Without ``--parent``
  only the counts are checked.

Usage, from the root of a checkout::

    git worktree add ../parent HEAD~1
    python3 benchmarks/perf_gate.py --parent ../parent --report perf-gate.json

It exits 0 when the gate passes and 1 when it fails.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "benchmarks" / "baselines" / "perfbench_counts.json"

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import run as perfbench_run  # noqa: E402
import workloads as perfbench_workloads  # noqa: E402

SEED = 1
#: Run length of the counting run. It must cover every case of a
#: workload; a run that does not is repeated at twice the length, up to
#: MAX_COUNT_SECONDS.
COUNT_SECONDS = 12.0
MAX_COUNT_SECONDS = 48.0
#: Parent/HEAD pairs per workload and the length of each timed run.
PAIRS = 5
RUN_SECONDS = 10.0
#: End-to-end metrics the time check gates; the bounds come from
#: BENCHMARK.json.
GATED = ("slots_per_s", "cpu_s_per_op", "peak_rss_mb")
REPORTED = GATED + ("setup_s",)
RUN_TIMEOUT_S = 900

DIGEST_LINE = re.compile(r"^case (\d+) digest ([0-9a-f]+) ")


class GateError(Exception):
    """perfbench could not produce a result for a checkout."""


def perfbench(checkout: Path, workload: str, trace: int, seconds: float) -> Dict[str, Any]:
    """One ``perfbench/run.py`` run in ``checkout``: its closing JSON
    object plus ``digests``, the case digests of its report."""
    try:
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=checkout,
            capture_output=True,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise GateError(f"{checkout}: {workload} ran past {RUN_TIMEOUT_S} s") from None
    lines = completed.stdout.splitlines()
    if completed.returncode != 0 or not lines:
        tail = "\n".join(completed.stderr.splitlines()[-5:])
        raise GateError(f"{checkout}: {workload} exited {completed.returncode}\n{tail}")
    result = json.loads(lines[-1])
    result["digests"] = [
        match.group(2) for match in map(DIGEST_LINE.match, lines) if match
    ]
    return result


def counted(workload: str) -> Dict[str, Any]:
    """This checkout's record entry for ``workload``: case digests plus
    the exact metrics of a traced run that covered every case."""
    cases = perfbench_workloads.WORKLOADS[workload].cases
    seconds = COUNT_SECONDS
    while True:
        result = perfbench(ROOT, workload, 1, seconds)
        if not result["correct"]:
            raise GateError(f"{workload}: {result['failed']} of {result['attempted']} ops failed")
        if len(result["digests"]) == cases:
            break
        if seconds >= MAX_COUNT_SECONDS:
            raise GateError(
                f"{workload}: a {seconds:g} s run covered "
                f"{len(result['digests'])} of {cases} cases"
            )
        seconds *= 2
    names = perfbench_run.COUNTS + ("f_rel_err", "d_rel_err")
    return {
        "digests": result["digests"],
        "metrics": {name: result["metrics"][name]["value"] for name in names},
    }


def check_counts(names: List[str], record: Dict[str, Any]) -> List[str]:
    """Problems of this checkout's exact counts against ``record``."""
    problems = []
    for workload in names:
        expected = record["workloads"].get(workload)
        if expected is None:
            problems.append(f"{workload}: not in {RECORD.name}; run with --record")
            continue
        actual = counted(workload)
        moved = [
            f"{workload}: {name} is {actual['metrics'].get(name)!r}, record has {value!r}"
            for name, value in sorted(expected["metrics"].items())
            if actual["metrics"].get(name) != value
        ]
        if actual["digests"] != expected["digests"]:
            moved.append(f"{workload}: case digests differ from the record")
        print(f"counts {workload}: {'ok' if not moved else 'FAILED'}", flush=True)
        problems += moved
    return problems


def worse_by(metric: Dict[str, Any], parent: float, head: float) -> float:
    """Fraction by which ``head`` is worse than ``parent`` (negative when
    better)."""
    if metric["better"] == "higher":
        return (parent - head) / parent
    return (head - parent) / parent


def check_times(
    names: List[str], parent: Path, spec: Dict[str, Any]
) -> Tuple[List[str], Dict[str, Any]]:
    """Median end-to-end metrics of alternating parent/HEAD runs;
    returns ``(problems, table)``."""
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    problems: List[str] = []
    table: Dict[str, Any] = {}
    for workload in names:
        values: Dict[str, Dict[str, List[float]]] = {"parent": {}, "head": {}}
        for pair in range(PAIRS):
            # Alternate which side goes first so a drifting host favours neither.
            sides = (("parent", parent), ("head", ROOT))
            for side, checkout in sides if pair % 2 == 0 else sides[::-1]:
                result = perfbench(checkout, workload, 0, RUN_SECONDS)
                if not result["correct"]:
                    raise GateError(f"{side} {workload}: {result['failed']} ops failed")
                for name in REPORTED:
                    values[side].setdefault(name, []).append(result["metrics"][name]["value"])
        rows = table[workload] = {}
        for name in REPORTED:
            before = statistics.median(values["parent"][name])
            after = statistics.median(values["head"][name])
            change = worse_by(metrics[name], before, after)
            gated = name in GATED
            ok = not gated or change <= metrics[name]["bound"]
            rows[name] = {
                "parent": values["parent"][name],
                "head": values["head"][name],
                "parent_median": before,
                "head_median": after,
                "worse_by": change,
                "bound": metrics[name]["bound"] if gated else None,
                "ok": ok,
            }
            verdict = ("ok" if ok else "FAILED") if gated else "not gated"
            print(
                f"times {workload:<17} {name:<13} parent {before:>12.4f} "
                f"head {after:>12.4f} worse by {change:+7.2%} ({verdict})",
                flush=True,
            )
            if not ok:
                problems.append(
                    f"{workload}: {name} worse by {change:.1%} "
                    f"(bound {metrics[name]['bound']:.0%})"
                )
    return problems, table


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--parent", type=Path, default=None,
        help="checkout of the parent commit to time against (omit: counts only)",
    )
    parser.add_argument(
        "--record", action="store_true",
        help=f"rewrite {RECORD.relative_to(ROOT)} from this checkout and exit",
    )
    parser.add_argument("--report", type=Path, default=None, help="write a JSON report here")
    args = parser.parse_args(argv)
    if args.parent is not None and not (args.parent / "perfbench" / "run.py").is_file():
        parser.error(f"{args.parent} is not a checkout with perfbench/run.py")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.record:
        record = {"seed": SEED, "workloads": {name: counted(name) for name in names}}
        RECORD.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {RECORD}")
        return 0

    report: Dict[str, Any] = {"problems": [], "times": None}
    problems = report["problems"]
    try:
        problems += check_counts(names, json.loads(RECORD.read_text()))
        if args.parent is None:
            print("no parent checkout: time check skipped")
        else:
            time_problems, report["times"] = check_times(names, args.parent.resolve(), spec)
            problems += time_problems
    except GateError as exc:
        problems.append(str(exc))
    report["passed"] = not problems
    if args.report is not None:
        args.report.write_text(json.dumps(report, indent=2) + "\n")
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print("perf gate " + ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
