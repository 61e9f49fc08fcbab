"""Start-up budget: each CLI verb imports only what it executes.

Every case runs one verb in a fresh interpreter against a small finished
sweep store and reports, at exit, which modules were loaded.  The budget
is a statement about ``sys.modules``, not about timings, so it holds on
any host:

* ``--help`` and the read verbs (``query``, ``watch``, ``report``) never
  load NumPy;
* none of them, and no fully resumed ``sweep``, loads the simulator, the
  experiment registry or checked mode.

See DESIGN.md, "Start-up and import layering".
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
GRID = ROOT / "tests" / "golden" / "sweep_smoke.json"

#: Modules that only running a simulation may load.
SIMULATOR = (
    "repro.sim.runner",
    "repro.sim.content",
    "repro.sim.evaluate",
    "repro.sim.charging",
    "repro.sim.vector_replay",
    "repro.sim.vector_content",
    "repro.experiments",
    "repro.checking",
)

#: Runs the CLI in-process, then prints the loaded module names as JSON.
_CHILD = """
import json, sys
from repro.cli import main
try:
    rc = main(sys.argv[1:])
except SystemExit as exc:
    rc = exc.code
print(json.dumps({"rc": rc, "modules": sorted(sys.modules)}))
"""


def _run_verb(cwd: Path, *argv: str) -> tuple:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    proc = subprocess.run([sys.executable, "-c", _CHILD, *argv], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    *output, last = proc.stdout.strip().splitlines()
    doc = json.loads(last)
    return doc["rc"], set(doc["modules"]), "\n".join(output)


@pytest.fixture(scope="module")
def swept(tmp_path_factory) -> Path:
    """A directory holding a finished smoke-grid store and its journal."""
    work = tmp_path_factory.mktemp("startup")
    shutil.copy(GRID, work / "grid.json")
    rc, _, _ = _run_verb(work, "sweep", "grid.json", "--store", "s.sqlite",
                         "--workers", "1")
    assert rc == 0
    return work


READ_VERBS = {
    "help": ("--help",),
    "query-digest": ("query", "s.sqlite", "--digest"),
    "query-csv": ("query", "s.sqlite", "--csv"),
    "watch": ("watch", "s.sqlite", "--once"),
    "report": ("report", "s.sqlite"),
}


@pytest.mark.parametrize("verb", sorted(READ_VERBS))
def test_read_verbs_load_neither_numpy_nor_simulator(swept, verb):
    rc, modules, _ = _run_verb(swept, *READ_VERBS[verb])
    assert rc == 0
    assert "numpy" not in modules
    assert not modules & set(SIMULATOR)


def test_resumed_sweep_does_not_load_simulator(swept):
    rc, modules, out = _run_verb(swept, "sweep", "grid.json", "--store",
                                 "s.sqlite", "--workers", "1")
    assert rc == 0
    assert "8 resumed, 0 completed" in out
    assert not modules & set(SIMULATOR)


def test_executing_sweep_does_load_simulator(tmp_path):
    # The counter-check: a sweep with pending cells must reach the
    # simulator, so the budget above cannot pass vacuously.
    shutil.copy(GRID, tmp_path / "grid.json")
    rc, modules, _ = _run_verb(tmp_path, "sweep", "grid.json", "--store",
                               "s.sqlite", "--workers", "1", "--max-cells", "1")
    assert rc == 0
    assert {"numpy", "repro.sim.runner", "repro.sim.evaluate"} <= modules
