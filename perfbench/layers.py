"""Per-layer timing installed from outside the program.

The benchmark never edits ``src/``. For a traced op it replaces each
layer's public entry point with a shim that times the call, then puts the
original back. A shim charges its layer the call's *self* time: the
call's duration minus the time spent in nested shimmed calls (e.g.
``CongestionMarker.mark`` inside ``BadabingTool.result``), so the layer
times of one op add up to the traced part of its wall time, never more.

Module-level functions are shimmed in every loaded ``repro`` module that
binds them, because callers hold their own reference after
``from ... import``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import ExitStack, contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

#: (layer, module, attribute) for every timed entry point. A layer may
#: own several entry points; its time is their sum.
SHIMS: Tuple[Tuple[str, str, str], ...] = (
    ("net.build", "repro.experiments.runner", "build_testbed"),
    ("traffic.start", "repro.experiments.runner", "apply_scenario"),
    ("core.tool_init", "repro.core.badabing", "BadabingTool.__init__"),
    ("net.sim_run", "repro.net.simulator", "Simulator.run"),
    ("analysis.truth", "repro.experiments.runner", "compute_ground_truth"),
    ("core.result", "repro.core.badabing", "BadabingTool.result"),
    ("obs.audit", "repro.obs.audit", "audit_run"),
    ("obs.audit", "repro.obs.audit", "publish_audit"),
    ("io.load", "repro.io.traces", "load_measurement"),
    ("core.mark", "repro.core.marking", "CongestionMarker.mark"),
    ("core.fold", "repro.io.traces", "Measurement.outcomes"),
    ("core.fold", "repro.core.schedule", "GeometricSchedule.outcomes_from_states"),
    ("core.fold", "repro.core.schedule", "coverage_report"),
    ("core.fold", "repro.core.estimators", "estimate_from_outcomes"),
    ("core.validate", "repro.core.validation", "validate_outcomes"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in SHIMS))


def _resolve(module_name: str, attribute: str) -> Tuple[Any, str, Any]:
    """(owner, name, current value) for ``module.attribute``, loudly."""
    owner: Any = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


@contextmanager
def patched(module_name: str, attribute: str, make: Callable[[Any], Any]) -> Iterator[None]:
    """Replace ``module.attribute`` with ``make(original)`` for the block.

    A method is replaced on its class; a function in every loaded
    ``repro`` module that binds it.
    """
    owner, name, original = _resolve(module_name, attribute)
    replacement = make(original)
    if isinstance(owner, type):
        sites: List[Any] = [owner]
    else:
        sites = [
            module
            for module_name_, module in list(sys.modules.items())
            if module_name_.split(".")[0] == "repro"
            and getattr(module, name, None) is original
        ]
    for site in sites:
        setattr(site, name, replacement)
    try:
        yield
    finally:
        for site in sites:
            setattr(site, name, original)


class LayerTrace:
    """Self time and call count per layer, for one op."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        # One accumulator of nested-shim time per active shimmed call.
        self._stack: List[List[float]] = []

    def _shim(self, layer: str, original: Callable[..., Any]) -> Callable[..., Any]:
        stack = self._stack

        @functools.wraps(original)
        def shim(*args: Any, **kwargs: Any) -> Any:
            nested = [0.0]
            stack.append(nested)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.seconds[layer] += elapsed - nested[0]
                self.calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed

        return shim

    @contextmanager
    def installed(self) -> Iterator["LayerTrace"]:
        """Every shim in :data:`SHIMS` in place for the block."""
        with ExitStack() as stack:
            for layer, module_name, attribute in SHIMS:
                make = functools.partial(self._shim, layer)
                stack.enter_context(patched(module_name, attribute, make))
            yield self
