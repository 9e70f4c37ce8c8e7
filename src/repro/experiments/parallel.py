"""Process-parallel sweep engine: spawn-safe cells, deterministic merge.

The paper's headline tables and figures are grids of runs over
``(p, duration, scenario, seed)`` cells, each cell an independent seeded
simulation — embarrassingly parallel work that :func:`~repro.experiments.runner.sweep_badabing`
used to execute serially. This module dispatches prepared cells to a
``ProcessPoolExecutor`` and re-assembles the results so that the parallel
sweep is **byte-identical** to the serial one on the same seeds:

* every cell runs under its *own* fresh
  :class:`~repro.obs.metrics.MetricsRegistry` and (when the parent is
  profiling) its own :class:`~repro.obs.profile.StageProfiler` inside the
  worker — no shared mutable state crosses a process boundary during the
  run;
* the parent merges the per-cell registries with
  :meth:`MetricsRegistry.merge` and absorbs the profiler snapshots **in
  cell order**, regardless of completion order, so the merged snapshot is a
  pure function of the cell list and seeds (the serial path performs the
  exact same per-cell-registry + ordered-merge dance);
* outcomes come back as the same ordered
  :class:`~repro.experiments.runner.RunOutcome` list serial produces, so
  :func:`~repro.experiments.runner.scorecard_from_outcomes` digests
  identically over either.

Failure containment mirrors the protected-run philosophy: a worker that
dies *hard* (``BrokenProcessPool`` from a segfault/``os._exit``/OOM-kill,
an unpicklable payload or result) is converted into a structured failed
``RunOutcome`` for the cell being waited on, the pool is rebuilt, and the
remaining cells are resubmitted — the sweep always returns its full
shape. A sweep-level ``max_wall_seconds`` deadline cancels cells that
have not started yet and reports them as budget-exhausted; in-flight
cells are never interrupted (matching
:class:`~repro.experiments.runner.RunBudget.max_wall_seconds` semantics).

The worker entry point lives at module top level and payloads are plain
picklable dataclasses, so the engine is safe under the ``spawn`` start
method (the only one that is fork-safety-proof across platforms).
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import profiling as _profiling
from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry, NullRegistry

#: How many times one cell may be the observed victim of a broken pool
#: before it is permanently failed. Two lets an *innocent* cell that was
#: merely co-resident with a crashing one get a fresh chance, while a
#: cell that reliably kills its worker converges to a structured failure.
MAX_POOL_BREAK_BLAME = 2

#: Registry construction modes a payload can request (mirrors what the
#: serial path injects for the same parent-registry state).
METRICS_FRESH = "fresh"
METRICS_NULL = "null"
METRICS_NONE = "none"


@dataclass(frozen=True)
class CellPayload:
    """Everything a worker needs to run one sweep cell, picklable.

    ``runner`` is an importable top-level callable (``None`` means
    :func:`~repro.experiments.runner.run_badabing`); ``kwargs`` must not
    contain live objects (``metrics``/``keep``) — the caller validates
    that before building payloads.
    """

    index: int
    label: str
    seed: int
    kwargs: Dict[str, Any]
    budget: Optional[Any] = None
    metrics_mode: str = METRICS_NONE
    #: True when the parent has an active profiler: the worker then runs
    #: its cell under its own :class:`~repro.obs.profile.StageProfiler`
    #: and sends back its snapshot for the parent to absorb.
    timed: bool = False
    runner: Optional[Callable[..., Any]] = None


@dataclass
class CellResult:
    """What a worker sends back: the outcome plus its observability shards."""

    index: int
    outcome: Any
    registry: Optional[MetricsRegistry] = None
    #: The worker profiler's snapshot (stages, edges, spans), if timed.
    profile: Optional[Dict[str, Any]] = None


def run_cell(payload: CellPayload) -> CellResult:
    """Worker entry point: run one protected cell in a child process.

    Builds the cell's private registry/profiler, runs the protected cell
    exactly as the serial path would, then detaches the registry's
    collectors (they close over the finished simulator and cannot be
    pickled) so the result is a plain data bundle.
    """
    from repro.experiments import runner as _runner

    fn = payload.runner if payload.runner is not None else _runner.run_badabing
    registry: Optional[MetricsRegistry] = None
    if payload.metrics_mode == METRICS_FRESH:
        registry = MetricsRegistry()
    elif payload.metrics_mode == METRICS_NULL:
        registry = NullRegistry()
    kwargs = dict(payload.kwargs)
    if registry is not None and _runner.accepts_kwarg(fn, "metrics"):
        kwargs["metrics"] = registry
    profiler = None
    if payload.timed:
        from repro.obs.profile import StageProfiler

        profiler = StageProfiler()
    with _profiling.profiling(profiler):
        with _profiling.profile_stage(
            "sweep.cell", label=payload.label, seed=payload.seed
        ):
            outcome = _runner.run_protected(
                fn,
                label=payload.label,
                seed=payload.seed,
                budget=payload.budget,
                **kwargs,
            )
    if registry is not None:
        registry.detach_collectors()
    return CellResult(
        index=payload.index,
        outcome=outcome,
        registry=registry if payload.metrics_mode == METRICS_FRESH else None,
        profile=profiler.snapshot() if profiler is not None else None,
    )


def _crash_outcome(payload: CellPayload, exc: BaseException, elapsed: float) -> Any:
    """A structured failed RunOutcome for a cell whose worker died hard."""
    from repro.experiments.runner import RunOutcome

    return RunOutcome(
        label=payload.label,
        ok=False,
        error=str(exc) or type(exc).__name__,
        error_type=type(exc).__name__,
        error_traceback="".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
        attempts=1,
        seeds=(payload.seed,),
        elapsed_seconds=elapsed,
    )


def deadline_outcome(label: str, max_wall_seconds: float) -> Any:
    """A budget-exhausted RunOutcome for a cell skipped at the deadline."""
    from repro.experiments.runner import RunOutcome

    return RunOutcome(
        label=label,
        ok=False,
        error=(
            f"sweep wall-clock deadline ({max_wall_seconds}s) reached "
            "before this cell started"
        ),
        error_type="BudgetExhaustedError",
        budget_exhausted=True,
        attempts=0,
        seeds=(),
    )


def _await_cell(future, deadline: Optional[float]) -> Tuple[str, Any]:
    """Wait for one cell future under the sweep deadline.

    Returns ``("ok", CellResult)``, ``("deadline", None)`` for a cell
    cancelled before it started, or ``("error", exception)`` for a hard
    worker failure. A cell already running at the deadline is allowed to
    finish — only not-yet-started cells are cancelled.
    """
    timeout = None if deadline is None else max(0.0, deadline - time.monotonic())
    try:
        return "ok", future.result(timeout=timeout)
    except FuturesTimeoutError:
        if future.cancel():
            return "deadline", None
        try:  # in flight: never interrupted
            return "ok", future.result()
        except CancelledError:
            return "deadline", None
        except BaseException as exc:  # noqa: BLE001 — contained per-cell
            return "error", exc
    except CancelledError:
        return "deadline", None
    except BaseException as exc:  # noqa: BLE001 — contained per-cell
        return "error", exc


def execute_parallel_sweep(
    payloads: Sequence[CellPayload],
    workers: int,
    metrics: Optional[MetricsRegistry] = None,
    max_wall_seconds: Optional[float] = None,
    exporter=None,
) -> List[Any]:
    """Run prepared cells across ``workers`` processes; merge in cell order.

    Returns one ``RunOutcome`` per payload, in payload order. Per-cell
    registries are merged into ``metrics`` and worker profiler snapshots
    absorbed into the active profiler (each span tagged ``cell=<label>``)
    strictly in cell order as each cell is finalized, so the parent's
    merged state is independent of completion order.

    ``exporter`` (when given) emits one ``kind="progress"`` snapshot per
    finalized cell; the record envelope carries the cell label and status
    while the metrics snapshot stays exactly the registry's merged state.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    started = time.monotonic()
    deadline = started + max_wall_seconds if max_wall_seconds is not None else None
    outcomes: List[Any] = [None] * len(payloads)
    blame: Dict[int, int] = {}
    context = get_context("spawn")
    pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
    try:
        futures = {
            payload.index: pool.submit(run_cell, payload) for payload in payloads
        }
        deadline_swept = False
        for payload in payloads:
            while outcomes[payload.index] is None:
                if (
                    deadline is not None
                    and not deadline_swept
                    and time.monotonic() >= deadline
                ):
                    # Cancel everything still pending in one sweep, before the
                    # executor's feeder thread can promote more cells into the
                    # call queue as running ones complete. Cells already fed
                    # refuse the cancel and are allowed to finish.
                    for future in futures.values():
                        future.cancel()
                    deadline_swept = True
                status, value = _await_cell(futures[payload.index], deadline)
                if status == "ok":
                    cell: CellResult = value
                    if metrics is not None and cell.registry is not None:
                        metrics.merge(
                            cell.registry, series_labels={"cell": payload.label}
                        )
                    prof = _profiling.ACTIVE
                    if prof is not None and cell.profile is not None:
                        prof.absorb(cell.profile, cell=payload.label)
                    outcomes[payload.index] = cell.outcome
                elif status == "deadline":
                    outcomes[payload.index] = deadline_outcome(
                        payload.label, max_wall_seconds
                    )
                elif isinstance(value, BrokenProcessPool):
                    # The pool died under some worker; we can only observe it
                    # at the cell we are waiting on. Blame it (bounded), then
                    # rebuild the pool and resubmit everything unfinished so
                    # innocent co-resident cells still complete.
                    blame[payload.index] = blame.get(payload.index, 0) + 1
                    if blame[payload.index] >= MAX_POOL_BREAK_BLAME:
                        outcomes[payload.index] = _crash_outcome(
                            payload, value, time.monotonic() - started
                        )
                    pool, futures = _rebuild_pool(
                        pool, context, workers, payloads, futures, outcomes
                    )
                    deadline_swept = False  # resubmitted cells need the sweep too
                else:
                    outcomes[payload.index] = _crash_outcome(
                        payload, value, time.monotonic() - started
                    )
            if exporter is not None:
                outcome = outcomes[payload.index]
                status = "ok" if outcome.ok else (
                    "budget_exhausted" if outcome.budget_exhausted else "failed"
                )
                exporter.export_now(
                    kind="progress", cell=payload.label, status=status
                )
    finally:
        pool.shutdown(wait=False)
    return outcomes


def _rebuild_pool(
    pool: ProcessPoolExecutor,
    context,
    workers: int,
    payloads: Sequence[CellPayload],
    futures: Dict[int, Any],
    outcomes: List[Any],
):
    """Replace a broken pool; resubmit every cell still owed a result.

    Cells whose futures already completed successfully keep their results;
    cells already finalized into ``outcomes`` are skipped.
    """
    pool.shutdown(wait=False)
    fresh = ProcessPoolExecutor(max_workers=workers, mp_context=context)
    rebuilt = dict(futures)
    for payload in payloads:
        if outcomes[payload.index] is not None:
            continue
        future = futures[payload.index]
        if future.done() and not future.cancelled() and future.exception() is None:
            continue  # finished before the break; result is intact
        rebuilt[payload.index] = fresh.submit(run_cell, payload)
    return fresh, rebuilt
