"""Bulk replay kernels: equivalence, eligibility, escape hatches.

The kernels' contract (see :mod:`repro.sim.vector_replay`): for every
stream and every fixed-period plain ReDHiP, CBF, level-prediction and EHC
configuration, the bulk replay is *bit-identical* to the reference loop —
same per-access outputs, same stall cycles, same final predictor state,
same telemetry — and therefore every derived :class:`SchemeResult` field
matches.  Predictors that observe per-event state (gated, MissMap, the
adaptive engine, wrappers) must be declared ineligible and keep the
reference path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.checking import CheckedPredictor
from repro.core.gating import gated_redhip_scheme
from repro.core.recalibration import AdaptiveRecalibrationEngine
from repro.core.redhip import ReDHiPController, redhip_scheme
from repro.predictors.cbf_scheme import cbf_scheme
from repro.predictors.ehc import EHCController, ehc_scheme
from repro.predictors.levelpred import LevelPredController, levelpred_scheme
from repro.predictors.missmap import missmap_scheme
from repro.sim import replay_reference, vector_replay
from repro.sim.config import SimConfig
from repro.sim.evaluate import evaluate_scheme
from repro.sim.runner import ExperimentRunner
from repro.util.validation import ReproError

SEEDS = (1, 2, 3)


def scheme_lineup(period):
    """Every shipped predictor scheme (ISSUE: 3 seeds x all of them)."""
    return [
        redhip_scheme(recal_period=period),
        redhip_scheme(recal_period=period, hash_kind="xor", name="ReDHiP-xor"),
        redhip_scheme(recal_period=None, name="ReDHiP-norecal"),
        redhip_scheme(recal_period=period, recal_threshold=0.5,
                      name="ReDHiP-adaptive"),
        cbf_scheme(),
        gated_redhip_scheme(recal_period=period, window=256),
        missmap_scheme(),
        levelpred_scheme(recal_period=period),
        ehc_scheme(recal_period=period),
    ]


@pytest.fixture(scope="module", params=SEEDS)
def seeded(request):
    from repro.energy.params import get_machine

    machine = get_machine("tiny")
    cfg = SimConfig(machine=machine, refs_per_core=2500, seed=request.param)
    runner = ExperimentRunner(cfg)
    return cfg, runner, runner.stream("mcf")


def _result_facts(res):
    """Everything a figure could read off a SchemeResult."""
    return (
        res.timing.exec_cycles,
        res.ledger.total_nj,
        dict(res.ledger.counts),
        dict(res.ledger.energy_nj),
        res.static_nj,
        res.hit_rates,
        res.level_lookups,
        res.level_hits,
        res.skips,
        res.false_positives,
        res.true_misses,
        res.recal_stall_cycles,
        res.predictor_stats,
    )


# ----------------------------------------------------------- equivalence
@pytest.mark.parametrize("scheme_idx", range(9))
@pytest.mark.parametrize("checked", [False, True])
def test_vectorized_equals_sequential_scheme_results(seeded, scheme_idx, checked,
                                                     monkeypatch):
    """Bit-identical SchemeResults, checked and unchecked, all schemes."""
    cfg, runner, stream = seeded
    scheme = scheme_lineup(cfg.recal_period)[scheme_idx]
    wl = runner.workload("mcf")
    fast = evaluate_scheme(stream, cfg.machine, scheme, wl, checked=checked)
    monkeypatch.setenv(vector_replay.NO_VECTOR_ENV, "1")
    slow = evaluate_scheme(stream, cfg.machine, scheme, wl, checked=False)
    assert _result_facts(fast) == _result_facts(slow)


def test_direct_replay_equivalence_with_sweeps(seeded):
    """Low-level contract: predictions, stall and final predictor state."""
    cfg, _, stream = seeded
    for period in (1, 7, 300, None):
        seq = ReDHiPController(cfg.machine, recal_period=period)
        vec = ReDHiPController(cfg.machine, recal_period=period)
        p1, c1, s1 = replay_reference.replay_predictor(stream, seq)
        p2, c2, s2 = vector_replay.replay_redhip_vectorized(stream, vec)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(c1, c2)
        assert s1 == s2
        np.testing.assert_array_equal(seq.table._bits, vec.table._bits)
        np.testing.assert_array_equal(seq.mirror._counts, vec.mirror._counts)
        assert seq.stats() == vec.stats()
        assert seq.table_updates == vec.table_updates
        assert seq.engine.l1_misses == vec.engine.l1_misses
        if period is not None:
            assert vec.engine.sweeps > 0  # the loop actually crossed epochs


# ------------------------------------------------------------ eligibility
def test_eligibility_gate(tiny_machine):
    """Exactly the plain predictor classes with the fixed-period engine
    have a bulk kernel; anything observing per-event state does not."""
    kind = vector_replay.bulk_kind
    assert kind(ReDHiPController(tiny_machine, recal_period=64)) == "redhip"
    assert kind(ReDHiPController(tiny_machine, recal_period=None)) == "redhip"
    assert kind(ReDHiPController(tiny_machine, hash_kind="xor")) == "redhip"
    assert kind(cbf_scheme().build_predictor(tiny_machine)) == "cbf"
    assert kind(cbf_scheme(counter_bits=1, hash_kind="bits")
                .build_predictor(tiny_machine)) == "cbf"
    assert kind(levelpred_scheme().build_predictor(tiny_machine)) == "levelpred"
    assert kind(ehc_scheme(recal_period=None)
                .build_predictor(tiny_machine)) == "ehc"
    # Adaptive engine observes per-event churn: not batchable, under any
    # controller that carries an engine.
    assert not vector_replay.eligible(
        ReDHiPController(tiny_machine, recal_threshold=0.5))
    for cls in (LevelPredController, EHCController):
        predictor = cls(tiny_machine)
        predictor.engine = AdaptiveRecalibrationEngine(
            threshold=0.5, llc_lines=64, cost=predictor.engine.cost)
        assert not vector_replay.eligible(predictor)
    # Gated ReDHiP, MissMap and wrappers: not batchable, because the gate
    # is `type(...) is`, never isinstance.
    for spec in (gated_redhip_scheme(), missmap_scheme()):
        assert not vector_replay.eligible(spec.build_predictor(tiny_machine))
    wrapped = CheckedPredictor.__new__(CheckedPredictor)
    assert not vector_replay.eligible(wrapped)

    class Sub(ReDHiPController):
        pass

    assert not vector_replay.eligible(Sub(tiny_machine))


def test_kernels_refuse_other_schemes(tiny_machine):
    """Widening the gate must not admit a level predictor (which carries
    ReDHiP's table, mirror and engine) into the ReDHiP kernel."""
    from repro.hierarchy.events import OutcomeStream

    stream = OutcomeStream(
        core=np.zeros(0, np.uint16), block=np.zeros(0, np.uint64),
        write=np.zeros(0, bool), gap=np.zeros(0, np.uint32),
        hit_level=np.zeros(0, np.int8), hit_rank=np.zeros(0, np.int8),
        llc_when=np.zeros(0, np.int64), llc_op=np.zeros(0, np.int8),
        llc_block=np.zeros(0, np.uint64), num_levels=3,
        final_llc_blocks=np.zeros(0, np.uint64),
    )
    lp = LevelPredController(tiny_machine)
    with pytest.raises(ReproError, match="not epoch-batchable"):
        vector_replay.replay_redhip_vectorized(stream, lp)
    with pytest.raises(ReproError, match="not epoch-batchable"):
        vector_replay.replay_cbf_vectorized(stream, lp)
    with pytest.raises(ReproError, match="not epoch-batchable"):
        vector_replay.replay_ehc_vectorized(stream, lp)


def test_ineligible_predictor_rejected(seeded, tiny_machine):
    _, _, stream = seeded
    predictor = cbf_scheme().build_predictor(tiny_machine)
    with pytest.raises(ReproError, match="not epoch-batchable"):
        vector_replay.replay_redhip_vectorized(stream, predictor)


# ---------------------------------------------------------- escape hatch
def test_no_vector_env_forces_sequential(seeded, monkeypatch):
    cfg, runner, stream = seeded
    monkeypatch.setenv(vector_replay.NO_VECTOR_ENV, "1")

    def boom(*args, **kwargs):
        raise AssertionError("vector kernel ran despite REPRO_NO_VECTOR_REPLAY")

    monkeypatch.setattr(vector_replay, "replay_redhip_vectorized", boom)
    res = evaluate_scheme(
        stream, cfg.machine, redhip_scheme(recal_period=cfg.recal_period),
        runner.workload("mcf"),
    )
    assert res.l1_misses > 0


def test_checked_mode_catches_divergent_kernel(seeded, monkeypatch):
    """Mutation test: a wrong vectorized answer must trip the checked-mode
    equivalence assertion, not silently change results."""
    cfg, runner, stream = seeded
    real = vector_replay.replay_redhip_vectorized

    def poisoned(stream_, predictor_):
        predicted, consulted, stall = real(stream_, predictor_)
        skips = np.nonzero(~predicted & (stream_.hit_level != 1))[0]
        assert len(skips), "stream produced no skips to poison"
        predicted = predicted.copy()
        predicted[skips[0]] = True  # stays conservative: no false negative
        return predicted, consulted, stall

    monkeypatch.setattr(vector_replay, "replay_redhip_vectorized", poisoned)
    with pytest.raises(ReproError, match="vectorized replay diverged"):
        evaluate_scheme(
            stream, cfg.machine, redhip_scheme(recal_period=cfg.recal_period),
            runner.workload("mcf"), checked=True,
        )


def test_runner_two_phase_uses_vector_path(seeded, monkeypatch):
    """The runner's fast path actually dispatches to the kernel."""
    cfg, _, _ = seeded
    runner = ExperimentRunner(cfg)
    calls = []
    real = vector_replay.replay_redhip_vectorized

    def spy(stream_, predictor_):
        calls.append(predictor_.name)
        return real(stream_, predictor_)

    monkeypatch.setattr(vector_replay, "replay_redhip_vectorized", spy)
    runner.run("mcf", redhip_scheme(recal_period=cfg.recal_period))
    assert calls == ["ReDHiP"]


# ------------------------------------------- checked mode, every kernel
def _flip_first(arr, where):
    hits = np.nonzero(where)[0]
    assert len(hits), "stream produced nothing to poison"
    arr = arr.copy()
    arr[hits[0]] = not arr[hits[0]]
    return arr


def _poison_outputs(kind, stream, outputs):
    """Change one per-access answer without creating a false negative."""
    misses = stream.hit_level != 1
    if kind == "cbf":
        predicted, consulted, stall = outputs
        return _flip_first(predicted, ~predicted & misses), consulted, stall
    if kind == "levelpred":
        level, confident, stall = outputs   # a skip becomes a full walk
        return level, _flip_first(confident, confident & (level == 0) & misses), stall
    dead, stall = outputs
    return _flip_first(dead, misses), stall


def _poison_state(kind, predictor):
    """Corrupt one entry of the final state the outputs do not show."""
    if kind == "cbf":
        predictor.filter._disabled[0] = not predictor.filter._disabled[0]
    elif kind == "levelpred":
        predictor.conf[0] ^= 1
    else:
        predictor.cur[0] ^= 1


KERNELS = {
    "cbf": ("replay_cbf_vectorized", lambda cfg: cbf_scheme()),
    "levelpred": ("replay_levelpred_vectorized",
                  lambda cfg: levelpred_scheme(recal_period=cfg.recal_period)),
    "ehc": ("replay_ehc_vectorized",
            lambda cfg: ehc_scheme(recal_period=cfg.recal_period)),
}


@pytest.mark.parametrize("kind", sorted(KERNELS))
@pytest.mark.parametrize("target", ["outputs", "state"])
def test_checked_mode_catches_divergent_bulk_kernel(seeded, monkeypatch,
                                                    kind, target):
    """Mutation test per scheme: a wrong answer or a wrong final state
    from any bulk kernel trips the checked-mode equivalence assertion."""
    cfg, runner, stream = seeded
    name, make_scheme = KERNELS[kind]
    real = getattr(vector_replay, name)

    def poisoned(stream_, predictor_, *args):
        outputs = real(stream_, predictor_, *args)
        if target == "state":
            _poison_state(kind, predictor_)
            return outputs
        return _poison_outputs(kind, stream_, outputs)

    monkeypatch.setattr(vector_replay, name, poisoned)
    wl = runner.workload("mcf")
    with pytest.raises(ReproError, match="vectorized replay diverged"):
        evaluate_scheme(stream, cfg.machine, make_scheme(cfg), wl, checked=True)
    # Unchecked, the poisoned kernel is trusted — the check is the oracle.
    evaluate_scheme(stream, cfg.machine, make_scheme(cfg), wl, checked=False)


# ---------------------------------------------------------- provenance
@pytest.mark.parametrize("no_vector", [False, True])
def test_replay_counters_follow_dispatch(seeded, monkeypatch, no_vector):
    """Every scheme's replay span and counters name the path that ran."""
    cfg, runner, stream = seeded
    if no_vector:
        monkeypatch.setenv(vector_replay.NO_VECTOR_ENV, "1")
    wl = runner.workload("mcf")
    lineup = {
        "ReDHiP": ("vector", redhip_scheme(recal_period=cfg.recal_period)),
        "CBF": ("vector", cbf_scheme()),
        "LevelPred": ("vector", levelpred_scheme(recal_period=cfg.recal_period)),
        "EHC": ("vector", ehc_scheme(recal_period=cfg.recal_period)),
        "ReDHiP-gated": ("sequential", gated_redhip_scheme(
            recal_period=cfg.recal_period, window=256)),
    }
    for name, (path, scheme) in lineup.items():
        path = "sequential" if no_vector else path
        with telemetry.session(force=True) as sess:
            evaluate_scheme(stream, cfg.machine, scheme, wl)
        total = sess.registry.counter_total
        assert total(f"replay.{path}") == 1, name
        other = "vector" if path == "sequential" else "sequential"
        assert total(f"replay.{other}") == 0, name
        tags = [s["tags"] for s in sess.tracer.to_dicts() if s["name"] == "replay"]
        assert [t["path"] for t in tags] == [path], name
    for kind in ("levelpred", "ehc"):
        with telemetry.session(force=True) as sess:
            evaluate_scheme(stream, cfg.machine, lineup[
                "LevelPred" if kind == "levelpred" else "EHC"][1], wl)
        assert sess.registry.counter_total(f"replay.{kind}") == 1


def test_dispatchers_enter_one_public_name(seeded, monkeypatch):
    """Each replay is entered through exactly one of the four names the
    benchmark tracer wraps, so per-scheme replay time is never counted
    twice: the ReDHiP kernel directly, everything else its dispatcher."""
    from repro.sim import evaluate

    cfg, runner, stream = seeded
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("replay_predictor", "replay_level_predictor", "replay_ehc"):
        spy(evaluate, name)
    spy(vector_replay, "replay_redhip_vectorized")
    wl = runner.workload("mcf")
    period = cfg.recal_period
    for scheme, entered in (
        (redhip_scheme(recal_period=period), "replay_redhip_vectorized"),
        (cbf_scheme(), "replay_predictor"),
        (levelpred_scheme(recal_period=period), "replay_level_predictor"),
        (ehc_scheme(recal_period=period), "replay_ehc"),
    ):
        calls.clear()
        evaluate_scheme(stream, cfg.machine, scheme, wl)
        assert calls == [entered], scheme.name
