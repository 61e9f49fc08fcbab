"""Experiments-as-sweeps: a grid spec runs only on the sweep substrate.

The one-execution-substrate contract (DESIGN.md): a spec that declares
``cells``/``render`` runs through the sweep scheduler + results store and
nowhere else.  The registry-wide byte pin lives in
``test_golden_artifacts``; this module tests the substrate's own
properties — the protocol, resume from a kept store, and every grid
spec's refusal to run on a config the cell vocabulary cannot express.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.energy.params import get_machine
from repro.experiments import SPECS, clear_cache, run_spec
from repro.experiments.driver import griddable
from repro.sim.config import SimConfig
from repro.sweep import run_cells
from repro.util.validation import ConfigError

#: Every spec converted to the cells/render protocol.
CONVERTED = (
    "fig6", "fig7", "fig8", "fig9", "fig10", "fig10-delta",
    "fig11", "fig12", "fig13", "ext-relwork",
    "ablation-hash", "ablation-entry-width",
    "ablation-replacement", "ablation-fill-accounting",
    "study-recal", "study-pt",
)


def smoke_config(**overrides):
    return SimConfig(machine=get_machine("tiny"), refs_per_core=1500,
                     seed=7, **overrides)


def _off_registry_machine(cfg):
    """A machine that is not the registry object (``deep_machine``,
    ``with_cores``, ... all produce these)."""
    return replace(cfg, machine=replace(cfg.machine, name="not-in-registry"))


#: Configs the cell vocabulary cannot express, one per off-grid axis.
OFF_GRID = {
    "memory-model": lambda: smoke_config(memory_latency=120.0,
                                         memory_energy_nj=8.0, mlp=4.0),
    "coherent": lambda: smoke_config(coherent=True),
    "checked": lambda: smoke_config(checked=True),
    "machine": lambda: _off_registry_machine(smoke_config()),
}


@pytest.fixture(scope="module", autouse=True)
def _drop_shared_runner():
    yield
    clear_cache()


def test_converted_specs_declare_the_grid_protocol():
    assert {eid for eid, spec in SPECS.items() if spec.build is None} \
        == set(CONVERTED)
    for eid in CONVERTED:
        spec = SPECS[eid]
        assert spec.cells is not None and spec.render is not None, eid
        cells = spec.cells(smoke_config(), **dict(spec.smoke_kwargs))
        assert cells, eid
        # Cells are canonical: re-canonicalizing is a no-op.
        assert all(c == c.canonical() for c in cells), eid


def test_griddable_is_the_routing_predicate():
    assert griddable(smoke_config())
    for variant, make in OFF_GRID.items():
        assert not griddable(make()), variant


def test_killed_figure_resumes_from_a_kept_store(tmp_path):
    """`repro run fig6 --store S` interrupted mid-grid resumes from S."""
    cfg = smoke_config()
    spec = SPECS["fig6"]
    cells = spec.cells(cfg, **dict(spec.smoke_kwargs))
    store = tmp_path / "fig6.sqlite"

    # "Kill" the figure after 3 cells: a bounded partial run.
    partial = run_cells(cells, "fig6", store, workers=1, max_cells=3)
    assert partial.completed == 3 and partial.resumed == 0

    # The driver, pointed at the same store, finishes the remainder.
    resumed = run_spec(spec, cfg, smoke=True, store=store)
    fresh = run_spec(spec, cfg, smoke=True)
    assert resumed.table == fresh.table
    assert resumed.series == fresh.series

    # Everything is now in the store: a third pass resumes every cell.
    again = run_cells(cells, "fig6", store, workers=1)
    assert again.completed == 0
    assert again.resumed == len({c.fingerprint() for c in cells})


@pytest.mark.parametrize("variant", sorted(OFF_GRID))
@pytest.mark.parametrize("eid", CONVERTED)
def test_grid_native_studies_refuse_off_grid_configs(eid, variant, monkeypatch):
    from repro.experiments import driver

    def boom(*a, **k):
        raise AssertionError("grid path taken for an off-grid config")

    monkeypatch.setattr(driver, "_run_grid", boom)
    with pytest.raises(ConfigError, match="grid-native") as exc:
        run_spec(SPECS[eid], OFF_GRID[variant](), smoke=True)
    message = str(exc.value)
    assert eid in message and "REPRO_CHECKED=1" in message
    for variant_spec in ("ext-cores", "ext-depth", "ext-timing"):
        assert variant_spec in message
