"""Shared benchmark fixtures.

Every benchmark regenerates one of the paper's tables or figures on the
profile selected by ``REPRO_PROFILE`` (default ``fast``; set ``full`` for
paper-length runs) and archives the rendered text under
``benchmarks/results/`` so the numbers behind EXPERIMENTS.md can be
re-inspected without rerunning. The overhead guards archive their
measurements the same way and assert their own fixed bounds; end-to-end
speed is measured by ``perfbench/`` and gated by
``benchmarks/perf_gate.py``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.profiles import active_profile

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def profile():
    return active_profile()


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def archive(results_dir, profile):
    """Callable: archive(name, text) -> writes results/<name>.<profile>.txt."""

    def _archive(name: str, text: str) -> None:
        path = results_dir / f"{name}.{profile.name}.txt"
        path.write_text(text + "\n", encoding="utf-8")

    return _archive
