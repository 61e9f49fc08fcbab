"""Differential fuzz suite for the bulk replay kernels.

The contract (see :mod:`repro.sim.vector_replay`): every bulk kernel is
bit-identical to its reference loop in :mod:`repro.sim.replay_reference`
— per-access outputs, stall cycles, every final predictor array,
``stats()`` and ``table_updates`` — on every stream and every predictor
configuration, including predictors that start from a non-empty state.

Streams come from real content walks of randomized (family, refs, seed)
cases on the tiny machine, plus synthetic event streams for what a walk
never produces: a CBF counter that saturates or underflows, an event at
``when == i`` on the very block looked up, empty sides, and an eviction
of a block that was never filled.  A divergence on a walked stream writes
a seed-replay bundle (as the vector-walk fuzzer does) before failing; the
bundle names the walk and its detail names the predictor configuration.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import checking
from repro.core.redhip import ReDHiPController
from repro.energy.params import get_machine
from repro.hierarchy.events import EVENT_EVICT, EVENT_FILL, OutcomeStream
from repro.predictors.cbf_scheme import CBFPredictor
from repro.predictors.ehc import EHCController
from repro.predictors.levelpred import LevelPredController
from repro.sim import replay_reference, vector_replay
from repro.sim.config import SimConfig
from repro.sim.evaluate import _per_access_pcs, _replay_divergence
from repro.sim.runner import ExperimentRunner
from repro.util.proptest import cases
from repro.util.validation import ConfigError

FAMILIES = ("mcf", "lbm", "soplex", "milc", "bwaves", "astar", "blas")

KERNELS = {
    "redhip": (vector_replay.replay_redhip_vectorized,
               replay_reference.replay_predictor),
    "cbf": (vector_replay.replay_cbf_vectorized,
            replay_reference.replay_predictor),
    "levelpred": (vector_replay.replay_levelpred_vectorized,
                  replay_reference.replay_level_predictor),
    "ehc": (vector_replay.replay_ehc_vectorized, replay_reference.replay_ehc),
}


@pytest.fixture
def machine():
    return get_machine("tiny")


@pytest.fixture(autouse=True)
def _bundle_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(checking.REPLAY_DIR_ENV, str(tmp_path))


def replay_both(kind, stream, make, pcs=None, passes=1):
    """Replay ``passes`` times into one bulk and one reference predictor
    (a second pass starts from a non-empty state and an advanced engine);
    returns the divergences of the last pass and the bulk predictor."""
    bulk_fn, ref_fn = KERNELS[kind]
    extra = (pcs,) if kind == "levelpred" else ()
    bulk, ref = make(), make()
    for _ in range(passes):
        got = bulk_fn(stream, bulk, *extra)
        want = ref_fn(stream, ref, *extra)
    return _replay_divergence(kind, bulk, ref, got, want), bulk


def assert_identical(kind, stream, make, label, pcs=None, passes=1,
                     cfg=None, workload=None):
    problems, bulk = replay_both(kind, stream, make, pcs, passes)
    if problems:
        detail = f"{label}: {kind} bulk replay diverged: " + "; ".join(problems)
        if cfg is None:
            pytest.fail(detail)
        ctx = checking.CheckContext.for_run(cfg, workload, scheme=bulk.name)
        try:
            ctx.fail("bulk-replay-equivalence", detail,
                     ref_index=max(stream.num_accesses - 1, 0))
        except checking.InvariantViolation as exc:
            pytest.fail(str(exc))
    return bulk


def make_stream(hit_level, block, events=(), num_levels=4):
    """A synthetic outcome stream: ``events`` is ``(when, op, block)``."""
    n = len(hit_level)
    when, ops, eblocks = (zip(*events) if events else ((), (), ()))
    return OutcomeStream(
        core=np.zeros(n, np.uint16),
        block=np.asarray(block, np.uint64),
        write=np.zeros(n, bool),
        gap=np.zeros(n, np.uint32),
        hit_level=np.asarray(hit_level, np.int8),
        hit_rank=np.full(n, -1, np.int8),
        llc_when=np.asarray(when, np.int64),
        llc_op=np.asarray(ops, np.int8),
        llc_block=np.asarray(eblocks, np.uint64),
        num_levels=num_levels,
        final_llc_blocks=np.zeros(0, np.uint64),
    )


def random_stream(rng, n, block_bits, consistent):
    """Random accesses and LLC events.  A consistent stream only evicts
    resident blocks (what a walk produces); an inconsistent one evicts
    at random, which a CBF must survive by disabling counters."""
    hit_level = rng.choice([0, 1, 2, 3, 4], size=n, p=[0.3, 0.3, 0.1, 0.1, 0.2])
    block = rng.integers(0, 1 << block_bits, size=n)
    resident: list[int] = []
    events = []
    for i in np.sort(rng.integers(0, n, size=n)).tolist():
        if resident and (not consistent or rng.random() < 0.45):
            if consistent:
                victim = resident.pop(int(rng.integers(0, len(resident))))
            else:
                victim = int(rng.integers(0, 1 << block_bits))
            events.append((i, EVENT_EVICT, victim))
        else:
            fill = int(rng.integers(0, 1 << block_bits))
            resident.append(fill)
            events.append((i, EVENT_FILL, fill))
    return make_stream(hit_level, block, events)


def period_choices(rng, default):
    """Period 1, a small period, the default, and never."""
    return (1, int(rng.integers(2, 40)), default, None)


# ================================================================ fuzz
def test_fuzz_walked_streams_every_kernel(machine):
    """30 randomized walks x every kernel x the configuration axes:
    CBF counter widths {1, 2, 4} and both hashes, level prediction and
    EHC at period 1 / small / default / never on small table budgets,
    one or two passes."""
    saturations = 0
    for i, rng in cases(seed=20261017, n=30):
        family = FAMILIES[int(rng.integers(0, len(FAMILIES)))]
        refs = int(rng.integers(200, 1500))
        seed = int(rng.integers(1, 1 << 16))
        cfg = SimConfig(machine=machine, refs_per_core=refs, seed=seed)
        runner = ExperimentRunner(cfg)
        stream = runner.stream(family)
        pcs = _per_access_pcs(stream, runner.workload(family))
        passes = int(rng.integers(1, 3))
        label = f"case {i}: {family} refs={refs} seed={seed} passes={passes}"
        common = dict(passes=passes, cfg=cfg, workload=family)

        for bits in (1, 2, 4):
            for hash_kind in ("bits", "xor"):
                budget = 1 << int(rng.integers(3, 10))
                bulk = assert_identical(
                    "cbf", stream,
                    lambda: CBFPredictor(budget, counter_bits=bits,
                                         hash_kind=hash_kind),
                    f"{label} cbf budget={budget} bits={bits} {hash_kind}",
                    **common)
                saturations += bulk.filter.saturations

        for period in period_choices(rng, cfg.recal_period):
            budget = 1 << int(rng.integers(4, 10))
            tag = f"{label} period={period} budget={budget}"
            assert_identical(
                "levelpred", stream,
                lambda: LevelPredController(machine, table_bytes=budget,
                                            recal_period=period),
                f"{tag} levelpred", pcs=pcs, **common)
            assert_identical(
                "ehc", stream,
                lambda: EHCController(machine, budget_bytes=budget,
                                      recal_period=period),
                f"{tag} ehc", **common)
            assert_identical(
                "redhip", stream,
                lambda: ReDHiPController(machine, table_bytes=budget,
                                         recal_period=period),
                f"{tag} redhip", **common)
    # The saturate-and-disable branch must actually fire in the corpus.
    assert saturations > 0


def test_fuzz_synthetic_cbf_saturate_and_underflow():
    """Random event streams, consistent and not: overflowing and
    underflowing counters disable, and the kernel follows every time."""
    overflow = underflow = 0
    for i, rng in cases(seed=77, n=40):
        consistent = bool(i % 2)
        stream = random_stream(rng, int(rng.integers(1, 400)),
                               block_bits=int(rng.integers(3, 9)),
                               consistent=consistent)
        for bits in (1, 2, 4):
            for hash_kind in ("bits", "xor"):
                label = (f"case {i}: consistent={consistent} bits={bits} "
                         f"{hash_kind}")
                filt = assert_identical(
                    "cbf", stream,
                    lambda: CBFPredictor(8, counter_bits=bits,
                                         hash_kind=hash_kind),
                    label, passes=1 + i % 3).filter
                # A disabled counter freezes where it left the range.
                overflow += int((filt._disabled
                                 & (filt._counts == filt.max_count)).sum())
                underflow += int((filt._disabled & (filt._counts == 0)).sum())
    assert overflow and underflow


def test_fuzz_synthetic_consistent_streams_zoo_kernels(machine):
    """Consistent random streams with many same-time events drive the
    epoch, round and timeline logic of the other three kernels."""
    for i, rng in cases(seed=5, n=30):
        stream = random_stream(rng, int(rng.integers(1, 300)),
                               block_bits=int(rng.integers(4, 12)),
                               consistent=True)
        pcs = rng.integers(0, 1 << 16, size=stream.num_accesses).astype(np.uint64)
        for period in period_choices(rng, 64):
            label = f"case {i}: period={period}"
            assert_identical(
                "levelpred", stream,
                lambda: LevelPredController(machine, table_bytes=32,
                                            recal_period=period),
                label, pcs=pcs, passes=1 + i % 2)
            assert_identical(
                "ehc", stream,
                lambda: EHCController(machine, budget_bytes=16,
                                      recal_period=period),
                label, passes=1 + i % 2)
            assert_identical(
                "redhip", stream,
                lambda: ReDHiPController(machine, table_bytes=16,
                                         recal_period=period),
                label, passes=1 + i % 2)


# ============================================================ directed
ALL_KINDS = ("redhip", "cbf", "levelpred", "ehc")


def factory(kind, machine, period=4):
    return {
        "redhip": lambda: ReDHiPController(machine, recal_period=period),
        "cbf": lambda: CBFPredictor(64, counter_bits=2),
        "levelpred": lambda: LevelPredController(machine, recal_period=period),
        "ehc": lambda: EHCController(machine, recal_period=period),
    }[kind]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_event_at_lookup_time_lands_after_the_lookup(kind, machine):
    """A fill caused by access i is applied after access i's lookup: the
    first miss on a block predicts absent, the next predicts present."""
    stream = make_stream(
        hit_level=[0, 4, 0, 4], block=[5, 5, 9, 5],
        events=[(0, EVENT_FILL, 5), (2, EVENT_FILL, 9), (3, EVENT_EVICT, 5)],
    )
    pcs = np.zeros(4, np.uint64)
    bulk = assert_identical(kind, stream, factory(kind, machine),
                            "when == i", pcs=pcs)
    if kind in ("redhip", "cbf"):
        predicted, _, _ = KERNELS[kind][0](stream, factory(kind, machine)())
        assert predicted.tolist() == [False, True, False, True]
    if kind == "ehc":
        # Both LLC hits on block 5 (accesses 1 and 3) are observed before
        # the eviction caused by access 3, which captures them.
        assert bulk.expected[5] == 2


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_no_events(kind, machine):
    stream = make_stream(hit_level=[0, 2, 1, 4, 0], block=[1, 2, 3, 1, 7])
    assert_identical(kind, stream, factory(kind, machine, period=2),
                     "no events", pcs=np.arange(5, dtype=np.uint64), passes=2)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_no_l1_misses(kind, machine):
    stream = make_stream(
        hit_level=[1, 1, 1], block=[1, 2, 3],
        events=[(0, EVENT_FILL, 4), (1, EVENT_FILL, 6), (2, EVENT_EVICT, 4)],
    )
    assert_identical(kind, stream, factory(kind, machine), "no misses",
                     pcs=np.zeros(3, np.uint64), passes=2)


def test_empty_stream(machine):
    stream = make_stream(hit_level=[], block=[])
    for kind in ALL_KINDS:
        assert_identical(kind, stream, factory(kind, machine), "empty",
                         pcs=np.zeros(0, np.uint64))


@pytest.mark.parametrize("kind", ["levelpred", "ehc", "redhip"])
def test_evicting_a_never_filled_block_raises_like_the_reference(kind, machine):
    stream = make_stream(
        hit_level=[0, 0, 4], block=[3, 4, 3],
        events=[(0, EVENT_FILL, 3), (1, EVENT_EVICT, 12)],
    )
    bulk_fn, ref_fn = KERNELS[kind]
    extra = (np.zeros(3, np.uint64),) if kind == "levelpred" else ()
    make = factory(kind, machine)
    with pytest.raises(ConfigError) as want:
        ref_fn(stream, make(), *extra)
    with pytest.raises(ConfigError) as got:
        bulk_fn(stream, make(), *extra)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("bits", [1, 2, 4])
def test_cbf_overflow_and_underflow_disable_entries(bits):
    """Directed: an entry overflowing ``max_count`` and an entry deleted
    at zero both disable, answer present forever, and count once."""
    max_count = (1 << bits) - 1
    events = [(0, EVENT_FILL, 1)] * (max_count + 1) + [(0, EVENT_EVICT, 2)]
    events += [(1, EVENT_EVICT, 1)] * (max_count + 1)
    stream = make_stream(hit_level=[0, 0, 0], block=[1, 2, 3], events=events)
    bulk = assert_identical(
        "cbf", stream, lambda: CBFPredictor(8, counter_bits=bits,
                                            hash_kind="bits"),
        f"overflow/underflow bits={bits}")
    assert bulk.filter.saturations == 2
    assert bulk.filter._disabled[[1, 2]].all()
    predicted, _, _ = vector_replay.replay_cbf_vectorized(
        stream, CBFPredictor(8, counter_bits=bits, hash_kind="bits"))
    assert predicted.tolist() == [False, True, False]
    predicted, _, _ = vector_replay.replay_cbf_vectorized(
        stream, bulk)                       # second pass: entries disabled
    assert predicted.tolist() == [True, True, False]
