"""Golden regression data: content fingerprints, fig6/fig7 headlines and
exact charging bytes.

Pins the simulator's observable behaviour for three seeds on the tiny
machine at a reduced trace length: the OutcomeStream fingerprint of every
golden workload (exact — any content-walk change shows up here first) and
the headline speedup / dynamic-energy series of the two flagship figures
(compared at tight relative tolerance by ``tests/test_golden_fingerprints.py``).
``charging_exact.json`` pins, per (workload, scheme, option set), a sha256
over every byte the charging layer produces — timing arrays, ledger items
in insertion order, static energy and tallies (``tests/test_charging_exact.py``).

Regenerate after an *intentional* behaviour change with exactly one
command, then review the JSON diff like any other code change:

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).parent / "tiny_golden.json"
FINGERPRINTS_PATH = Path(__file__).parent / "sweep_cell_fingerprints.json"
CHARGING_PATH = Path(__file__).parent / "charging_exact.json"
#: The committed sweep grids whose cell fingerprints are pinned.  A
#: fingerprint is the resume key — if one moves, every existing results
#: store silently forgets the cell — so scheme-axis extensions must leave
#: the pre-existing grid's fingerprints untouched.
SWEEP_GRIDS = ("sweep_smoke.json", "sweep_zoo.json")
MACHINE = "tiny"
REFS_PER_CORE = 2000
SEEDS = (1, 2, 3)
WORKLOADS = ("mcf", "lbm")
#: Every paper family gets its fingerprint pinned at one seed, so a
#: generator change in any recipe — not just the two walk-golden ones —
#: is caught by the golden suite.
FAMILY_SEED = 1
#: The exact-charging golden: every scheme family the evaluator charges,
#: under every option that changes what ``_settle`` charges after the
#: level probes.
CHARGING_WORKLOADS = ("mcf", "soplex")
CHARGING_REFS_PER_CORE = 4000
CHARGING_SCHEMES = ("base", "oracle", "phased", "waypred", "cbf", "redhip",
                    "redhip_noov", "levelpred", "oracle_levelpred", "ehc")
CHARGING_OPTIONS = ("default", "mlp", "memory", "dram", "fill")


def compute_golden() -> dict:
    """Recompute the full golden payload (shared by regen and the test)."""
    from repro.energy.params import get_machine
    from repro.experiments.registry import run_experiment
    from repro.sim.config import SimConfig
    from repro.sim.content import ContentSimulator
    from repro.workloads import PAPER_WORKLOADS, get_workload

    machine = get_machine(MACHINE)
    data: dict = {
        "meta": {
            "machine": MACHINE,
            "refs_per_core": REFS_PER_CORE,
            "workloads": list(WORKLOADS),
            "family_seed": FAMILY_SEED,
            "regen": "PYTHONPATH=src python tests/golden/regen.py",
        },
        "seeds": {},
        "families": {},
    }
    family_cfg = SimConfig(machine=machine, refs_per_core=REFS_PER_CORE,
                           seed=FAMILY_SEED)
    for name in PAPER_WORKLOADS:
        workload = get_workload(name, machine, REFS_PER_CORE, FAMILY_SEED)
        data["families"][name] = (
            ContentSimulator(family_cfg).run(workload).fingerprint()
        )
    for seed in SEEDS:
        cfg = SimConfig(machine=machine, refs_per_core=REFS_PER_CORE, seed=seed)
        fingerprints = {}
        for name in WORKLOADS:
            workload = get_workload(name, machine, REFS_PER_CORE, seed)
            fingerprints[name] = ContentSimulator(cfg).run(workload).fingerprint()
        fig6 = run_experiment("fig6", cfg, workloads=WORKLOADS)
        fig7 = run_experiment("fig7", cfg, workloads=WORKLOADS)
        data["seeds"][str(seed)] = {
            "fingerprints": fingerprints,
            "fig6_speedup": fig6.series,
            "fig7_dynamic_energy": fig7.series,
        }
    return data


def compute_sweep_fingerprints() -> dict:
    """label -> fingerprint for every cell of the committed sweep grids."""
    from repro.sweep.spec import load_sweep

    data: dict = {}
    for grid in SWEEP_GRIDS:
        spec = load_sweep(Path(__file__).parent / grid)
        data[grid] = {cell.label(): cell.fingerprint() for cell in spec.cells()}
    return data


def _charging_scheme(key: str, recal_period: int):
    from repro.core.redhip import redhip_scheme
    from repro.predictors.base import (
        base_scheme,
        oracle_scheme,
        phased_scheme,
        waypred_scheme,
    )
    from repro.predictors.cbf_scheme import cbf_scheme
    from repro.predictors.ehc import ehc_scheme
    from repro.predictors.levelpred import levelpred_scheme, oracle_levelpred_scheme

    return {
        "base": base_scheme,
        "oracle": oracle_scheme,
        "phased": phased_scheme,
        "waypred": waypred_scheme,
        "cbf": cbf_scheme,
        "redhip": lambda: redhip_scheme(recal_period=recal_period),
        "redhip_noov": lambda: redhip_scheme(
            recal_period=recal_period, name="ReDHiP-NoOv", lookup_delay=0),
        "levelpred": lambda: levelpred_scheme(recal_period=recal_period),
        "oracle_levelpred": oracle_levelpred_scheme,
        "ehc": lambda: ehc_scheme(recal_period=recal_period),
    }[key]()


def _charging_options(key: str) -> dict:
    from repro.energy.dram import DramConfig

    return {
        "default": {},
        "mlp": {"mlp": 2.0},
        "memory": {"memory_latency": 37.5, "memory_energy_nj": 1.25},
        "dram": {"dram": DramConfig()},
        "fill": {"fill_energy_weight": 0.5},
    }[key]


def charging_digest(result) -> str:
    """sha256 over every byte one evaluation's charging produced."""
    import hashlib

    import numpy as np

    h = hashlib.sha256()
    timing = result.timing
    for arr in (timing.core_cycles, timing.compute_cycles, timing.memory_cycles):
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    h.update(float(timing.stall_cycles).hex().encode())
    for key, energy in result.ledger.energy_nj.items():
        h.update(f"{key}|{result.ledger.counts[key]}|{float(energy).hex()};".encode())
    h.update(float(result.static_nj).hex().encode())
    tallies = (
        sorted((k, float(v).hex()) for k, v in result.hit_rates.items()),
        sorted(result.level_lookups.items()),
        sorted(result.level_hits.items()),
        result.l1_misses, result.skips, result.false_positives,
        result.true_misses, float(result.recal_stall_cycles).hex(),
    )
    h.update(repr(tallies).encode())
    return h.hexdigest()


def charging_streams():
    """(machine, config, {workload name: (workload, stream)}) of the recipe."""
    from repro.energy.params import get_machine
    from repro.sim.config import SimConfig
    from repro.sim.content import ContentSimulator
    from repro.workloads import get_workload

    machine = get_machine(MACHINE)
    cfg = SimConfig(machine=machine, refs_per_core=CHARGING_REFS_PER_CORE,
                    seed=FAMILY_SEED)
    streams = {}
    for name in CHARGING_WORKLOADS:
        workload = get_workload(name, machine, CHARGING_REFS_PER_CORE,
                                FAMILY_SEED)
        streams[name] = (workload, ContentSimulator(cfg).run(workload))
    return machine, cfg, streams


def compute_charging_exact() -> dict:
    """``workload/scheme/option`` -> :func:`charging_digest`."""
    from repro.sim.evaluate import evaluate_scheme

    machine, cfg, streams = charging_streams()
    cells = {}
    for wname, (workload, stream) in streams.items():
        for skey in CHARGING_SCHEMES:
            for okey in CHARGING_OPTIONS:
                result = evaluate_scheme(
                    stream, machine, _charging_scheme(skey, cfg.recal_period),
                    workload, **_charging_options(okey),
                )
                cells[f"{wname}/{skey}/{okey}"] = charging_digest(result)
    return {
        "meta": {
            "machine": MACHINE,
            "refs_per_core": CHARGING_REFS_PER_CORE,
            "seed": FAMILY_SEED,
            "regen": "PYTHONPATH=src python tests/golden/regen.py",
        },
        "cells": cells,
    }


def main() -> None:
    data = compute_golden()
    GOLDEN_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    prints = compute_sweep_fingerprints()
    FINGERPRINTS_PATH.write_text(json.dumps(prints, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FINGERPRINTS_PATH}")
    charging = compute_charging_exact()
    CHARGING_PATH.write_text(json.dumps(charging, indent=2, sort_keys=True) + "\n")
    print(f"wrote {CHARGING_PATH}")


if __name__ == "__main__":
    main()
