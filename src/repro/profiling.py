"""Process-global active-profiler state (hot-path shim).

This lives at the package root rather than inside :mod:`repro.obs`
because the instrumented hot modules — the simulator event loop, link
service, §6.1 marking, the §5 estimator fold, wire codecs — must be able
to read the active profiler without importing ``repro.obs.__init__``,
which loads the whole observability package.
The real profiler implementation, documents, and CLI plumbing live in
:mod:`repro.obs.profile`, which re-exports everything here; user code
should import from there.

The contract for instrumentation sites is a single module-attribute read
plus a ``None`` check per potential stage::

    from repro import profiling as _profiling

    prof = _profiling.ACTIVE
    frame = prof.start("sim.run") if prof is not None else None
    try:
        ...
    finally:
        if prof is not None:
            prof.stop(frame)

With no profiler active (the default everywhere outside ``--trace-out``)
that is the entire cost, so profiling support adds
nothing measurable to un-profiled runs and *never* touches a metrics
registry — snapshot digests are byte-identical whether a profiler is
active or not.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional

#: Per-call duration buckets (seconds): sub-microsecond wire codecs up
#: to multi-second sweep merges. Canonical here (instead of
#: :mod:`repro.obs.profile`, which re-exports it) so per-packet hot sites
#: can bucket inline into leaf accumulators without the obs import.
STAGE_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)

#: The process-global active profiler, or None. Read directly by hot
#: paths (``_profiling.ACTIVE``); set only through :func:`profiling`.
ACTIVE: Optional[Any] = None


@contextmanager
def profiling(profiler: Optional[Any]) -> Iterator[Optional[Any]]:
    """Scope ``profiler`` as the active profiler; restores the previous one.

    The one way to activate profiling. Nesting is safe: an inner scope
    shadows the outer profiler for its duration and the outer one
    resumes afterwards.
    """
    global ACTIVE
    previous, ACTIVE = ACTIVE, profiler
    try:
        yield profiler
    finally:
        ACTIVE = previous


@contextmanager
def profile_stage(name: str, **attrs: Any) -> Iterator[Optional[Any]]:
    """Scoped timer (and span) against the active profiler; free no-op
    when none. ``attrs`` land on the frame's span record.

    Convenience for warm (per-run, per-phase) sites; per-packet hot paths
    should use the manual ``start``/``stop`` pattern from the module
    docstring (or leaf records) instead to skip generator overhead.
    """
    prof = ACTIVE
    if prof is None:
        yield None
        return
    frame = prof.start(name, attrs)
    try:
        yield frame
    finally:
        prof.stop(frame)


def event(name: str, **attrs: Any) -> None:
    """Zero-duration marker on the active profiler; no-op when none."""
    prof = ACTIVE
    if prof is not None:
        prof.event(name, **attrs)
