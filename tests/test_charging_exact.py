"""Exact-bytes charging golden: every scheme, every settle option.

``tests/golden/charging_exact.json`` pins a sha256 per (workload, scheme,
option set) over the timing arrays, the ledger items in insertion order,
static energy and the tallies of one evaluation on the tiny machine.  The
charging layer may be restructured freely, but not one float may move;
the recipe lives in ``tests/golden/regen.py``:

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

_REGEN = Path(__file__).parent / "golden" / "regen.py"
_spec = importlib.util.spec_from_file_location("golden_regen", _REGEN)
golden_regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_regen)


@pytest.fixture(scope="module")
def golden():
    return json.loads(golden_regen.CHARGING_PATH.read_text())


@pytest.fixture(scope="module")
def streams():
    return golden_regen.charging_streams()


def test_recipe_matches_golden_meta(golden):
    meta = golden["meta"]
    assert meta["machine"] == golden_regen.MACHINE
    assert meta["refs_per_core"] == golden_regen.CHARGING_REFS_PER_CORE
    assert meta["seed"] == golden_regen.FAMILY_SEED
    assert len(golden["cells"]) == (
        len(golden_regen.CHARGING_WORKLOADS)
        * len(golden_regen.CHARGING_SCHEMES)
        * len(golden_regen.CHARGING_OPTIONS)
    )


@pytest.mark.parametrize("scheme", golden_regen.CHARGING_SCHEMES)
def test_charging_bytes_exact(golden, streams, scheme):
    from repro.sim.evaluate import evaluate_scheme

    machine, cfg, by_workload = streams
    drifted = []
    for wname, (workload, stream) in by_workload.items():
        for option in golden_regen.CHARGING_OPTIONS:
            result = evaluate_scheme(
                stream, machine,
                golden_regen._charging_scheme(scheme, cfg.recal_period),
                workload, **golden_regen._charging_options(option),
            )
            key = f"{wname}/{scheme}/{option}"
            if golden_regen.charging_digest(result) != golden["cells"][key]:
                drifted.append(key)
    assert not drifted, f"charging bytes drifted for {drifted}"


def test_stream_memo_holds_no_per_access_arrays(streams):
    """The per-stream tallies memo is O(cores + levels), never O(accesses):
    a per-access mask memoised on the stream would cost every cached
    stream another n bytes for as long as it lives."""
    machine, _, by_workload = streams
    bound = max(machine.cores, machine.num_levels + 1)
    for _, stream in by_workload.values():
        tallies = stream.tallies(machine.cores)
        for name, value in vars(tallies).items():
            if np.ndim(value) == 0:
                continue
            assert len(value) <= bound, (name, len(value), bound)
