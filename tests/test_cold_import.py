"""Every module under ``repro`` must import on its own, in a cold interpreter.

The full suite imports modules in collection order, which can hide an
import cycle that only bites when a module is the first ``repro`` import
of a process (``python -c "import repro.net.simulator"``, a single test
file, a worker process). One subprocess checks all modules: before each
import it drops every ``repro*`` entry from ``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_CHILD = r"""
import importlib, json, sys, traceback
failures = {}
for name in json.loads(sys.argv[1]):
    for loaded in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception:
        failures[name] = traceback.format_exc().strip().splitlines()[-1]
print(json.dumps(failures))
"""


def _module_names():
    names = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        names.append(".".join(parts))
    return names


def test_every_module_imports_cold():
    names = _module_names()
    assert "repro.net.simulator" in names and len(names) > 50
    completed = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(names)],
        capture_output=True,
        text=True,
        cwd=str(SRC),
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    failures = json.loads(completed.stdout.strip().splitlines()[-1])
    assert failures == {}, "\n".join(f"{k}: {v}" for k, v in failures.items())
