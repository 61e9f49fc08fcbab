"""Lazy package namespaces behave exactly like the eager ones they replace.

``repro`` and its subpackages resolve their public names on first access
(:mod:`repro._lazy`).  Everything a user could do with the eager
re-exports must still work: ``getattr``, ``from pkg import name``,
``from pkg import *``, ``dir()``, and a clear ``AttributeError`` for
names that do not exist.
"""

from __future__ import annotations

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent

LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.energy",
    "repro.experiments",
    "repro.hierarchy",
    "repro.predictors",
    "repro.prefetch",
    "repro.results",
    "repro.sim",
    "repro.sweep",
    "repro.telemetry",
    "repro.util",
    "repro.workloads",
)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert module.__all__, package
    for name in module.__all__:
        assert getattr(module, name) is not None, f"{package}.{name}"


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_star_import_binds_every_exported_name(package):
    module = importlib.import_module(package)
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    for name in module.__all__:
        assert namespace[name] is getattr(module, name), f"{package}.{name}"


def test_dir_lists_every_exported_name_before_first_use():
    # A fresh interpreter, so no name has been resolved (and cached) yet.
    script = (
        "import importlib, json, sys\n"
        "missing = {}\n"
        "for package in sys.argv[1:]:\n"
        "    module = importlib.import_module(package)\n"
        "    missing[package] = sorted(set(module.__all__) - set(dir(module)))\n"
        "print(json.dumps(missing))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script, *LAZY_PACKAGES],
                          env=env, capture_output=True, text=True,
                          check=True, timeout=60)
    assert json.loads(proc.stdout) == {p: [] for p in LAZY_PACKAGES}


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_attribute_names_the_module(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match=re.escape(repr(package))):
        getattr(module, "no_such_name")


def test_resolved_names_are_the_defining_objects():
    import repro
    from repro.sim.runner import ExperimentRunner
    from repro.workloads.registry import get_workload

    assert repro.ExperimentRunner is ExperimentRunner
    assert repro.get_workload is get_workload
    assert repro.sim.ExperimentRunner is ExperimentRunner
    assert "ExperimentRunner" in vars(repro)       # cached after first use


def test_submodules_still_import_through_lazy_packages():
    from repro import checking, faults
    from repro.experiments import registry

    assert checking.InvariantViolation is not None
    assert faults.FaultPlan is not None
    assert registry.SPECS


def test_importing_repro_loads_no_submodule():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, repro; "
         "print(json.dumps(sorted(m for m in sys.modules "
         "if m.startswith(('repro', 'numpy')))))"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert json.loads(proc.stdout) == ["repro", "repro._lazy"]


def test_readme_quick_start_imports_run():
    text = (ROOT / "README.md").read_text()
    # ``from repro... import (a, b,\n c)`` or a one-line import.
    imports = re.findall(r"^from repro[\w.]* import (?:\([^)]*\)|[^\n(]+)",
                         text, flags=re.MULTILINE)
    assert any("SimConfig" in line for line in imports)
    for line in imports:
        exec(line, {})


def test_workload_names_match_the_model_tables():
    from repro.workloads.names import EXTENDED_NAMES, SPEC_NAMES
    from repro.workloads.spec import EXTENDED_MODELS, SPEC_MODELS

    assert tuple(SPEC_MODELS) == SPEC_NAMES
    assert tuple(EXTENDED_MODELS) == EXTENDED_NAMES
