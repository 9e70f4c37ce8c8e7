"""Deterministic stage profiler for the measurement pipeline.

:class:`StageProfiler` is the repo's one timing primitive. The pipeline's
named stages — ``schedule.generate``, ``sim.run``, ``queue.service``,
``marking.apply``, ``estimator.fold``, ``validator.fold``,
``wire.encode``/``wire.decode``, ``trace.io``, ``registry.merge`` — and
the runners' phases (``testbed.build``, ``traffic.start``,
``truth.extract``, ``tool.result``, ``sweep.cell``, ``live.session``, …)
carry lightweight monotonic-clock timers that attribute *self* time
(stage minus its children) and *cumulative* time (whole stage,
reentrancy-aware) per stage, bucket every call into a fixed-bound
histogram, and record parent→child edges for call-tree rendering.

Every scoped frame also appends one span record (``type``, ``name``,
``t0``, ``dur``, ``parent``, ``attrs``) to :attr:`StageProfiler.spans`;
:meth:`StageProfiler.write_jsonl` writes them as a ``repro.obs.trace/1``
file (``--trace-out``) that closes with one per-stage ``profile`` record.
Leaf :meth:`~StageProfiler.record` / :meth:`~StageProfiler.leaf` sites
stay span-free, so per-packet hot paths pay only their stage-stat
bookkeeping.

Determinism contract (DESIGN.md §14): profiling must never perturb
metric snapshot digests. A profiler keeps all of its wall-clock state on
*itself* and never writes into a :class:`~repro.obs.metrics.MetricsRegistry`;
worker shards hand their :meth:`~StageProfiler.snapshot` back to the
parent, which :meth:`~StageProfiler.absorb`\\ s it.

The process-global activation plumbing (:data:`~repro.profiling.ACTIVE`,
:func:`~repro.profiling.profiling`, :func:`~repro.profiling.profile_stage`,
:func:`~repro.profiling.event`) lives in :mod:`repro.profiling` so hot
modules can read it without loading the whole ``repro.obs`` package; it
is re-exported here.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ObservabilityError
from repro.profiling import (  # noqa: F401  (re-exported API surface)
    STAGE_BUCKETS,
    event,
    profile_stage,
    profiling,
)

PROFILE_SCHEMA = "repro.obs.profile/1"

#: Schema identifier stamped into the trace meta line.
TRACE_SCHEMA = "repro.obs.trace/1"

#: The pipeline stages the substrate instruments out of the box. Kept as
#: one canonical tuple so the stage-coverage test asserts against a
#: single source of truth.
PIPELINE_STAGES: Tuple[str, ...] = (
    "schedule.generate",
    "sim.run",
    "queue.service",
    "marking.apply",
    "estimator.fold",
    "validator.fold",
    "wire.encode",
    "wire.decode",
    "trace.io",
    "registry.merge",
)


class _StageStat:
    """Accumulated timings for one named stage."""

    __slots__ = (
        "name", "calls", "self_seconds", "cum_seconds", "max_seconds",
        "sum_seconds", "counts",
    )

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.self_seconds = 0.0
        #: Reentrancy-aware total: nested same-name frames contribute only
        #: via the outermost one, so recursion cannot inflate this past
        #: wall time.
        self.cum_seconds = 0.0
        self.max_seconds = 0.0
        #: Plain per-call duration total (histogram ``sum``): *does* count
        #: nested same-name calls, matching ``counts``.
        self.sum_seconds = 0.0
        self.counts = [0] * (len(STAGE_BUCKETS) + 1)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "calls": self.calls,
            "self_seconds": self.self_seconds,
            "cum_seconds": self.cum_seconds,
            "max_seconds": self.max_seconds,
            "sum_seconds": self.sum_seconds,
            "buckets": list(STAGE_BUCKETS),
            "counts": list(self.counts),
        }


class StageProfiler:
    """Scoped stage timer with self/cumulative attribution and a span log.

    Frames are plain lists (``[name, start, child_seconds, parent_frame,
    attrs]``) handed back from :meth:`start` and consumed by :meth:`stop`;
    the cost of an instrumented stage is two monotonic clock reads, a
    handful of arithmetic ops and one span record. Not thread-safe by
    design — one profiler per thread (the pipeline is single-threaded per
    cell) — except :meth:`event`, which never touches the frame stack.
    ``meta`` (tool, scenario, seed, …) goes into the trace meta line.
    """

    def __init__(self, clock=perf_counter, **meta: Any):
        self._clock = clock
        self.meta: Dict[str, Any] = dict(meta)
        #: Finished span and event records, in completion order.
        self.spans: List[Dict[str, Any]] = []
        #: Clock reading span ``t0`` values are relative to: the first
        #: frame's start (set lazily so injected clocks see no extra read).
        self._epoch: Optional[float] = None
        self._stack: List[list] = []
        #: Frames that left the stack while still open (see :meth:`stop`).
        self._detached: List[list] = []
        self._stats: Dict[str, _StageStat] = {}
        self._edges: Dict[Tuple[str, str], List[float]] = {}
        self._depth: Dict[str, int] = {}
        #: Open leaf accumulators: (parent_frame_or_None, name, acc).
        self._leaf_accs: List[tuple] = []

    # ------------------------------------------------------------- timing
    def start(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> list:
        """Open a stage frame. Pair with :meth:`stop` in a finally block."""
        self._depth[name] = self._depth.get(name, 0) + 1
        stack = self._stack
        frame = [name, 0.0, 0.0, stack[-1] if stack else None, attrs]
        stack.append(frame)
        # Clock read last so profiler bookkeeping lands in the parent's
        # self time, not the child's.
        frame[1] = self._clock()
        if self._epoch is None:
            self._epoch = frame[1]
        return frame

    def stop(self, frame: list) -> float:
        """Close ``frame``; returns its wall duration in seconds.

        Frames still open above ``frame`` are *detached*: they leave the
        stack, so new frames stop nesting under them, and are recorded
        if and when their own stop() runs. That covers interleaved async
        frames (session A starts, B starts, A stops, B stops) and
        exception unwinding alike — a frame abandoned by an exception is
        simply never recorded. A frame already stopped is ignored.
        """
        now = self._clock()
        stack = self._stack
        name = frame[0]
        if any(open_frame is frame for open_frame in stack):
            while True:
                top = stack.pop()
                if top is frame:
                    break
                self._depth[top[0]] -= 1
                self._detached.append(top)
            depth = self._depth[name] - 1
            self._depth[name] = depth
        else:
            for index, open_frame in enumerate(self._detached):
                if open_frame is frame:
                    del self._detached[index]
                    break
            else:
                return 0.0
            depth = self._depth.get(name, 0)
        if self._leaf_accs:
            # Fold leaf accumulators whose parent frame is closing; their
            # total lands in frame[2] (child time) before self is computed.
            keep = []
            for parent, leaf_name, acc in self._leaf_accs:
                if parent is frame:
                    frame[2] += self._fold_leaf(name, leaf_name, acc)
                else:
                    keep.append((parent, leaf_name, acc))
            self._leaf_accs[:] = keep
        duration = now - frame[1]
        if duration < 0.0:
            duration = 0.0
        stat = self._stats.get(name)
        if stat is None:
            stat = self._stats[name] = _StageStat(name)
        stat.calls += 1
        self_seconds = duration - frame[2]
        if self_seconds < 0.0:
            self_seconds = 0.0
        stat.self_seconds += self_seconds
        if depth == 0:
            stat.cum_seconds += duration
        if duration > stat.max_seconds:
            stat.max_seconds = duration
        stat.sum_seconds += duration
        stat.counts[bisect_left(STAGE_BUCKETS, duration)] += 1
        parent = frame[3]
        if parent is not None:
            parent[2] += duration
        parent_name = parent[0] if parent is not None else ""
        edge = self._edges.get((parent_name, name))
        if edge is None:
            edge = self._edges[(parent_name, name)] = [0, 0.0]
        edge[0] += 1
        edge[1] += duration
        self.spans.append(
            {
                "type": "span",
                "name": name,
                "t0": frame[1] - self._epoch,
                "dur": duration,
                "parent": parent_name or None,
                "attrs": frame[4] or {},
            }
        )
        return duration

    @contextmanager
    def stage(self, name: str, **attrs: Any) -> Iterator[list]:
        """Scoped form of :meth:`start`/:meth:`stop`."""
        frame = self.start(name, attrs)
        try:
            yield frame
        finally:
            self.stop(frame)

    def event(self, name: str, **attrs: Any) -> None:
        """Record an instantaneous (zero-duration) marker.

        Safe from other threads (the telemetry exporter's): it never
        reads or changes the frame stack, so its ``parent`` is null.
        """
        now = self._clock()
        if self._epoch is None:
            self._epoch = now
        self.spans.append(
            {
                "type": "event",
                "name": name,
                "t0": now - self._epoch,
                "dur": 0.0,
                "parent": None,
                "attrs": attrs,
            }
        )

    def record(self, name: str, seconds: float) -> None:
        """Record one already-measured leaf call of ``seconds`` duration.

        The cheap path for per-packet sites (queue service, wire codecs):
        the caller reads the clock itself, so there is no frame push/pop
        and no span. The call is charged to the enclosing open frame (if
        any) as child time and gets a parent edge, exactly like a scoped
        frame would.
        """
        if seconds < 0.0:
            seconds = 0.0
        stat = self._stats.get(name)
        if stat is None:
            stat = self._stats[name] = _StageStat(name)
        stat.calls += 1
        stat.self_seconds += seconds
        # Inside an open same-name scoped frame the enclosing stop() will
        # count this time in cum already (reentrancy rule).
        if self._depth.get(name, 0) == 0:
            stat.cum_seconds += seconds
        if seconds > stat.max_seconds:
            stat.max_seconds = seconds
        stat.sum_seconds += seconds
        stat.counts[bisect_left(STAGE_BUCKETS, seconds)] += 1
        stack = self._stack
        if stack:
            parent = stack[-1]
            parent[2] += seconds
            edge_key = (parent[0], name)
        else:
            edge_key = ("", name)
        edge = self._edges.get(edge_key)
        if edge is None:
            edge = self._edges[edge_key] = [0, 0.0]
        edge[0] += 1
        edge[1] += seconds

    def leaf(self, name: str) -> list:
        """Preregistered accumulator for a per-event hot site.

        :meth:`record` still costs a method call plus several dict
        operations per event — too much inside the simulator's
        per-packet loop. ``leaf`` hands the caller a plain mutable list
        ``[calls, total_seconds, max_seconds, counts, closed]`` to update
        *inline* (index ops only); the accumulator is folded into the
        stage stats when the enclosing open frame stops, or at
        snapshot/stages time for root-level accumulators. ``closed``
        flips True at fold — callers must re-fetch a fresh accumulator
        when they see it set.
        """
        acc = [0, 0.0, 0.0, [0] * (len(STAGE_BUCKETS) + 1), False]
        parent = self._stack[-1] if self._stack else None
        self._leaf_accs.append((parent, name, acc))
        return acc

    def _fold_leaf(self, parent_name: str, name: str, acc: list) -> float:
        """Fold one leaf accumulator into the stats; returns its total."""
        acc[4] = True
        calls = acc[0]
        if not calls:
            return 0.0
        total = acc[1]
        stat = self._stats.get(name)
        if stat is None:
            stat = self._stats[name] = _StageStat(name)
        stat.calls += calls
        stat.self_seconds += total
        # Same reentrancy rule as record(): inside an open same-name
        # scoped frame the enclosing stop() counts this time in cum.
        if self._depth.get(name, 0) == 0:
            stat.cum_seconds += total
        if acc[2] > stat.max_seconds:
            stat.max_seconds = acc[2]
        stat.sum_seconds += total
        counts = stat.counts
        for index, count in enumerate(acc[3]):
            counts[index] += count
        edge_key = (parent_name, name)
        edge = self._edges.get(edge_key)
        if edge is None:
            edge = self._edges[edge_key] = [0, 0.0]
        edge[0] += calls
        edge[1] += total
        return total

    def _flush_leaves(self) -> None:
        """Fold every remaining leaf accumulator (snapshot/stages time).

        Accumulators under a still-open frame charge that frame's child
        time now, so its eventual stop() still computes self correctly.
        """
        for parent, name, acc in self._leaf_accs:
            total = self._fold_leaf(parent[0] if parent else "", name, acc)
            if parent is not None:
                parent[2] += total
        self._leaf_accs.clear()

    # ------------------------------------------------------------ documents
    def stages(self) -> Dict[str, Dict[str, Any]]:
        """Per-stage stats as plain dicts, sorted by stage name."""
        self._flush_leaves()
        return {
            name: self._stats[name].to_dict() for name in sorted(self._stats)
        }

    def edges(self) -> List[Dict[str, Any]]:
        """Parent→child call edges (root edges have ``parent == ""``)."""
        self._flush_leaves()
        return [
            {
                "parent": parent,
                "stage": stage,
                "calls": calls,
                "cum_seconds": cum,
            }
            for (parent, stage), (calls, cum) in sorted(self._edges.items())
        ]

    def snapshot(self) -> Dict[str, Any]:
        """Stages, edges and spans as a ``repro.obs.profile/1`` document
        (plain data, picklable: what a sweep worker sends back)."""
        return {
            "schema": PROFILE_SCHEMA,
            "stages": self.stages(),
            "edges": self.edges(),
            "spans": list(self.spans),
        }

    def absorb(self, snapshot: Dict[str, Any], **attrs: Any) -> None:
        """Fold another profiler's :meth:`snapshot` into this one.

        Counters and histogram buckets add; ``max_seconds`` takes the
        max. Spans are appended with ``attrs`` (e.g. ``cell=label``)
        merged into each; their ``t0`` stays relative to the *other*
        profiler's epoch — per-shard durations are what matters for
        finding slow cells.
        """
        for name, stage in snapshot.get("stages", {}).items():
            stat = self._stats.get(name)
            if stat is None:
                stat = self._stats[name] = _StageStat(name)
            counts = stage.get("counts", [])
            if len(counts) != len(stat.counts):
                raise ObservabilityError(
                    f"cannot absorb stage {name!r}: bucket shape differs"
                )
            stat.calls += int(stage.get("calls", 0))
            stat.self_seconds += float(stage.get("self_seconds", 0.0))
            stat.cum_seconds += float(stage.get("cum_seconds", 0.0))
            stat.sum_seconds += float(stage.get("sum_seconds", 0.0))
            stat.max_seconds = max(
                stat.max_seconds, float(stage.get("max_seconds", 0.0))
            )
            for i, n in enumerate(counts):
                stat.counts[i] += int(n)
        for edge in snapshot.get("edges", []):
            key = (edge.get("parent", ""), edge["stage"])
            slot = self._edges.get(key)
            if slot is None:
                slot = self._edges[key] = [0, 0.0]
            slot[0] += int(edge.get("calls", 0))
            slot[1] += float(edge.get("cum_seconds", 0.0))
        for span in snapshot.get("spans", []):
            self.spans.append(
                dict(span, attrs={**span.get("attrs", {}), **attrs})
            )

    # ----------------------------------------------------------------- trace
    def write_jsonl(self, path) -> None:
        """Write the span log as a ``repro.obs.trace/1`` JSONL file: the
        meta line, every span and event sorted by ``t0``, then one closing
        ``profile`` record carrying :meth:`stages` and :meth:`edges` (leaf
        stages such as ``queue.service`` have no spans, so only this
        record holds them; ``repro obs profile`` renders it)."""
        from repro.obs.artifacts import NdjsonWriter

        writer = NdjsonWriter(path, "trace")
        try:
            writer.write({"type": "meta", "schema": TRACE_SCHEMA, **self.meta})
            for span in sorted(self.spans, key=lambda span: span["t0"]):
                writer.write(span)
            writer.write(
                {"type": "profile", "stages": self.stages(), "edges": self.edges()}
            )
        finally:
            writer.close()
