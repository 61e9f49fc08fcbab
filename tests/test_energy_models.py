"""CACTI model, energy ledger, cost table and static/timing models."""

import math

import numpy as np
import pytest

from repro.energy.accounting import CostTable, EnergyLedger, StaticEnergyModel
from repro.energy.cacti import CactiModel
from repro.energy.params import get_machine, paper_machine
from repro.energy.timing import TimingModel
from repro.util.validation import ConfigError


# ---------------------------------------------------------------- CACTI model
def test_cacti_energy_monotone_in_size():
    model = CactiModel()
    sizes = [1 << k for k in range(10, 27, 2)]
    energies = [model.data_array(s) for s in sizes]
    assert all(a < b for a, b in zip(energies, energies[1:]))


def test_cacti_delay_and_leakage_monotone():
    model = CactiModel()
    assert model.delay(64 << 20) > model.delay(32 << 10)
    assert model.leakage(64 << 20) > model.leakage(32 << 10)


def test_cacti_band_covers_table1():
    """Every Table I dynamic-energy value sits in the model's band — the
    sanity check the paper's numbers should pass if transcribed right."""
    model = CactiModel()
    for level in paper_machine().levels:
        est = model.estimate_level(level)
        assert model.within_band(level.access_energy, est.access_energy), level.name


def test_cacti_table_estimate_far_below_equal_size_cache():
    """§IV: the direct-mapped PT costs much less than the same-size L2."""
    model = CactiModel()
    l2 = paper_machine().level(2)
    pt = model.estimate_table(512 * 1024)
    cache_like = model.data_array(512 * 1024) + model.tag_array(512 * 1024, 8)
    assert pt.access_energy < cache_like / 2


# ------------------------------------------------------------------- ledger
def test_ledger_charge_and_breakdown():
    led = EnergyLedger()
    led.charge("L1", "probe", 0.01, 100)
    led.charge("L4", "probe", 6.0, 10)
    led.charge("L4", "prefetch", 6.0, 1)
    assert math.isclose(led.total_nj, 1.0 + 60.0 + 6.0)
    assert math.isclose(led.component_nj("L4"), 66.0)
    assert math.isclose(led.category_nj("probe"), 61.0)
    assert led.counts[("L1", "probe")] == 100
    assert set(led.breakdown()) == {"L1", "L4"}


def test_ledger_merge():
    a, b = EnergyLedger(), EnergyLedger()
    a.charge("L1", "probe", 1.0, 1)
    b.charge("L1", "probe", 1.0, 2)
    b.charge("PT", "lookup", 0.02, 5)
    a.merge(b)
    assert a.counts[("L1", "probe")] == 3
    assert math.isclose(a.component_nj("PT"), 0.1)


def test_ledger_rejects_negative_count():
    led = EnergyLedger()
    with pytest.raises(ConfigError):
        led.charge("L1", "probe", 1.0, -1)


def test_ledger_zero_count_is_noop():
    led = EnergyLedger()
    led.charge("L1", "probe", 1.0, 0)
    assert led.total_nj == 0.0 and not led.counts


# ---------------------------------------------------------------- cost table
def test_cost_table_recal_sweep_matches_paper():
    """§IV: 1M tags, 16 tags/set/cycle, 4 banks => 16K cycles."""
    costs = CostTable(paper_machine())
    assert costs.recal_sweep_cycles == 16 * 1024


def test_cost_table_parallel_vs_phased_energies():
    costs = CostTable(paper_machine())
    assert math.isclose(costs.level_parallel_energy(4), 1.171 + 5.542)
    assert costs.level_tag_energy(4) == 1.171
    assert costs.level_parallel_delay(4) == 22
    assert costs.level_tag_delay(4) == 13


def test_recal_sweep_energy_positive_and_scales_with_sets():
    paper = CostTable(paper_machine())
    scaled = CostTable(get_machine("scaled"))
    assert paper.recal_sweep_energy > scaled.recal_sweep_energy > 0


# -------------------------------------------------------------- static model
def test_static_energy_accounts_private_copies():
    m = paper_machine()
    model = StaticEnergyModel(m)
    expected_w = 8 * (0.0013 + 0.02 + 0.16) + 2.56 + 0.01
    assert math.isclose(model.total_leakage_w, expected_w)
    one_second = model.static_energy_nj(m.frequency_hz)
    assert math.isclose(one_second, expected_w * 1e9, rel_tol=1e-9)
    # Excluding the PT removes exactly its leakage.
    no_pt = model.static_energy_nj(m.frequency_hz, include_pt=False)
    assert math.isclose(one_second - no_pt, 0.01 * 1e9, rel_tol=1e-9)


def test_static_energy_rejects_negative_cycles():
    model = StaticEnergyModel(paper_machine())
    with pytest.raises(ConfigError):
        model.static_energy_nj(-1.0)


# ------------------------------------------------------------------- timing
def test_timing_model_sums_per_core():
    m = get_machine("tiny")
    tm = TimingModel(m)
    core_ids = np.array([0, 0, 1, 1, 0])
    gaps = np.array([2, 0, 4, 1, 3])
    lat = np.array([2.0, 10.0, 2.0, 2.0, 30.0])
    cpis = np.array([1.0, 2.0])
    res = tm.run(core_ids, gaps, lat, cpis)
    assert math.isclose(res.compute_cycles[0], (2 + 0 + 3) * 1.0)
    assert math.isclose(res.compute_cycles[1], (4 + 1) * 2.0)
    assert math.isclose(res.memory_cycles[0], 42.0)
    assert math.isclose(res.exec_cycles, max(5 + 42, 10 + 4))


def test_timing_speedup_and_stall():
    m = get_machine("tiny")
    tm = TimingModel(m)
    ids = np.zeros(4, dtype=np.int64)
    gaps = np.ones(4)
    cpis = np.array([1.0, 1.0])
    base = tm.run(ids, gaps, np.full(4, 10.0), cpis)
    fast = tm.run(ids, gaps, np.full(4, 5.0), cpis, stall_cycles=2.0)
    assert fast.speedup_over(base) == pytest.approx(44.0 / 26.0)


def test_timing_validates_shapes():
    m = get_machine("tiny")
    tm = TimingModel(m)
    with pytest.raises(ConfigError):
        tm.run(np.zeros(3, dtype=int), np.zeros(3), np.zeros(2), np.array([1.0, 1.0]))
    with pytest.raises(ConfigError):
        tm.run(np.zeros(3, dtype=int), np.zeros(3), np.zeros(3), np.array([1.0]))


def test_timing_rejects_negative_stall():
    m = get_machine("tiny")
    tm = TimingModel(m)
    ids = np.zeros(2, dtype=np.int64)
    cpis = np.array([1.0, 1.0])
    with pytest.raises(ConfigError, match="stall_cycles must be non-negative"):
        tm.run(ids, np.ones(2), np.ones(2), cpis, stall_cycles=-0.5)
    assert tm.run(ids, np.ones(2), np.ones(2), cpis, stall_cycles=0.0).stall_cycles == 0.0
