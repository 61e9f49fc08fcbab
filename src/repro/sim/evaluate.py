"""Phase 2: scheme evaluation over a frozen outcome stream.

Given the scheme-independent content trajectory from
:mod:`repro.sim.content`, this module decides *which* levels each access
reaches under one scheme and what the predictor answered; every latency
and energy charge for those decisions is applied by the charging kernel
(:mod:`repro.sim.charging` — see its docstring for the full policy, which
the integrated simulator shares).

A predicted LLC miss skips every level below L1: no probes, no latency
beyond L1 + table, straight to (free) memory.  False negatives are
structurally impossible for the shipped predictors; the evaluator enforces
this with a hard error, because a silent false negative would mean serving
stale data in real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from repro import checking, telemetry
from repro.energy.accounting import EnergyLedger
from repro.energy.params import MachineConfig
from repro.energy.timing import TimingResult
from repro.hierarchy.events import OutcomeStream
from repro.predictors.base import PresencePredictor, SchemeSpec
from repro.sim import replay_reference, vector_replay
from repro.sim.charging import (
    ROUTE_DEAD,
    ROUTE_SINGLE,
    ROUTE_SKIP,
    ROUTE_WALK,
    ChargingKernel,
)
from repro.util.validation import ReproError
from repro.workloads.trace import Workload

__all__ = [
    "SchemeResult",
    "evaluate_scheme",
    "replay_predictor",
    "replay_level_predictor",
    "replay_ehc",
]


@dataclass
class SchemeResult:
    """Aggregated outcome of one (workload, scheme) evaluation."""

    scheme: str
    workload: str
    machine: str
    timing: TimingResult
    ledger: EnergyLedger
    static_nj: float
    hit_rates: dict[int, float]
    level_lookups: dict[int, int]
    level_hits: dict[int, int]
    l1_misses: int = 0
    skips: int = 0                 # predicted-miss accesses sent to memory
    false_positives: int = 0       # predicted present but absent everywhere
    true_misses: int = 0           # accesses served by memory
    recal_stall_cycles: float = 0.0
    predictor_stats: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    @property
    def exec_cycles(self) -> float:
        return self.timing.exec_cycles

    @property
    def dynamic_nj(self) -> float:
        return self.ledger.total_nj

    @property
    def total_nj(self) -> float:
        return self.dynamic_nj + self.static_nj

    @property
    def skip_coverage(self) -> float:
        """Fraction of true LLC misses the scheme skipped (Oracle = 1.0)."""
        return self.skips / self.true_misses if self.true_misses else 0.0

    def speedup_over(self, base: "SchemeResult") -> float:
        return self.timing.speedup_over(base.timing)

    def dynamic_ratio(self, base: "SchemeResult") -> float:
        return self.dynamic_nj / base.dynamic_nj if base.dynamic_nj else 1.0

    def total_ratio(self, base: "SchemeResult") -> float:
        return self.total_nj / base.total_nj if base.total_nj else 1.0

    def perf_energy_metric(self, base: "SchemeResult") -> float:
        """Figure 8's metric: speedup x total-energy-saving product.

        Both factors expressed as (1 + gain): a scheme with 8 % speedup and
        22 % total energy saving scores 1.08 x 1.22 ~ 1.32.
        """
        return self.speedup_over(base) * (2.0 - self.total_ratio(base))


def _per_access_pcs(stream: OutcomeStream, workload: Workload) -> np.ndarray:
    """Per-access program counters in the merged multi-core order.

    The outcome stream deliberately carries no PCs (the content walk is
    PC-blind); the level predictor's PC^block index reconstructs them
    from the workload traces.  The stream's ``core`` column already is
    the merged order, and the merge keeps each core's program order, so
    core ``c``'s accesses take its trace's PCs front to back — no need to
    recompute (or memoise) the workload's merge order.
    """
    pcs = np.empty(stream.num_accesses, dtype=np.uint64)
    for core, trace in enumerate(workload.traces):
        at = np.flatnonzero(stream.core == core)
        pcs[at] = trace.pc[:len(at)]
    return pcs


def _bulk_kind(predictor) -> "str | None":
    """The bulk kernel that replays ``predictor`` here, or None for the
    reference loop (no kernel, or ``REPRO_NO_VECTOR_REPLAY`` is set)."""
    if vector_replay.vector_replay_disabled():
        return None
    return vector_replay.bulk_kind(predictor)


def replay_predictor(
    stream: OutcomeStream, predictor: PresencePredictor
) -> tuple[np.ndarray, np.ndarray, float]:
    """Replay L1-miss presence lookups against the LLC event stream.

    Returns the per-access prediction array (only meaningful where the
    access missed L1), the per-access *consulted* array (False where a
    gated predictor answered without touching its table), and the total
    recalibration stall cycles.  Plain ReDHiP and CBF run their bulk
    kernel (:mod:`repro.sim.vector_replay`); everything else, and every
    predictor under ``REPRO_NO_VECTOR_REPLAY``, runs the reference loop
    (:mod:`repro.sim.replay_reference`).  Both give identical answers.
    """
    kind = _bulk_kind(predictor)
    if kind == "redhip":
        return vector_replay.replay_redhip_vectorized(stream, predictor)
    if kind == "cbf":
        return vector_replay.replay_cbf_vectorized(stream, predictor)
    return replay_reference.replay_predictor(stream, predictor)


def replay_level_predictor(
    stream: OutcomeStream, predictor, pcs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Replay level-prediction lookups over the event stream.

    Returns per-access predicted levels (0 = memory/no prediction),
    per-access confidence flags, and the total recalibration stall
    cycles; bulk kernel or reference loop as for :func:`replay_predictor`.
    """
    if _bulk_kind(predictor) == "levelpred":
        return vector_replay.replay_levelpred_vectorized(stream, predictor, pcs)
    return replay_reference.replay_level_predictor(stream, predictor, pcs)


def replay_ehc(
    stream: OutcomeStream, predictor
) -> tuple[np.ndarray, float]:
    """Replay expected-hit-count lookups over the events.

    Returns the per-access predicted-dead flags (meaningful at L1
    misses) and the total recalibration stall cycles; bulk kernel or
    reference loop as for :func:`replay_predictor`.
    """
    if _bulk_kind(predictor) == "ehc":
        return vector_replay.replay_ehc_vectorized(stream, predictor)
    return replay_reference.replay_ehc(stream, predictor)


#: Per-access outputs of each bulk kernel (the stall comes last).
_REPLAY_OUTPUTS = {
    "redhip": ("prediction", "consulted"),
    "cbf": ("prediction", "consulted"),
    "levelpred": ("pred_level", "confident"),
    "ehc": ("dead",),
}

#: Final predictor state each bulk kernel must reproduce, beyond
#: ``stats()`` and ``table_updates`` (dotted attribute paths).
_REPLAY_STATE = {
    "redhip": ("table._bits", "mirror._counts", "engine.sweeps",
               "engine.l1_misses"),
    "cbf": ("filter._counts", "filter._disabled", "filter.saturations",
            "filter.inserts", "filter.deletes"),
    "levelpred": ("tags", "levels", "conf", "_last", "table._bits",
                  "mirror._counts", "engine.sweeps", "engine.l1_misses"),
    "ehc": ("expected", "cur", "mirror._counts", "engine.sweeps",
            "engine.l1_misses"),
}


def _attr_path(obj, path: str):
    for name in path.split("."):
        obj = getattr(obj, name)
    return obj


def _replay_divergence(kind: str, predictor, reference, outputs: tuple,
                       expected: tuple) -> list[str]:
    """Every observable in which a ``kind`` bulk replay (``predictor``,
    ``outputs``) differs from a reference replay (``reference``,
    ``expected``): per-access outputs, stall cycles, the final state of
    :data:`_REPLAY_STATE`, ``table_updates`` and ``stats()``."""
    problems = []
    for name, got, want in zip(_REPLAY_OUTPUTS[kind], outputs, expected):
        if not np.array_equal(got, want):
            bad = np.nonzero(got != want)[0]
            problems.append(
                f"{len(bad)} {name}(s) differ (first at access {int(bad[0])})"
            )
    if outputs[-1] != expected[-1]:
        problems.append(f"stall {outputs[-1]} != sequential {expected[-1]}")
    for path in _REPLAY_STATE[kind]:
        if not np.array_equal(_attr_path(predictor, path),
                              _attr_path(reference, path)):
            problems.append(f"final {path} differs")
    if predictor.table_updates != reference.table_updates:
        problems.append(
            f"table_updates {predictor.table_updates} != "
            f"sequential {reference.table_updates}"
        )
    if predictor.stats() != reference.stats():
        problems.append(
            f"telemetry differs: {predictor.stats()} != {reference.stats()}"
        )
    return problems


def _assert_replay_equivalent(
    stream: OutcomeStream,
    scheme: SchemeSpec,
    machine: MachineConfig,
    predictor,
    outputs: tuple,
    pcs: "np.ndarray | None" = None,
) -> None:
    """Checked mode: a bulk replay must match a reference re-run.

    Builds a second fresh predictor, replays it through the reference
    loop, and compares every observable (:func:`_replay_divergence`).
    Any divergence is a bug in the kernel (or a predictor that wrongly
    passed :func:`vector_replay.bulk_kind`).
    """
    reference = scheme.build_predictor(machine)
    if scheme.kind == "levelpred":
        expected = replay_reference.replay_level_predictor(stream, reference, pcs)
    elif scheme.kind == "ehc":
        expected = replay_reference.replay_ehc(stream, reference)
    else:
        expected = replay_reference.replay_predictor(stream, reference)
    problems = _replay_divergence(vector_replay.bulk_kind(predictor), predictor,
                                  reference, outputs, expected)
    if problems:
        raise ReproError(
            f"vectorized replay diverged from sequential for scheme "
            f"{scheme.name!r}: " + "; ".join(problems)
        )


def _replay(stream, machine, scheme, workload, predictor, checked, pcs=None):
    """Replay ``predictor`` once, tagged and counted with the path that
    ran (``vector`` or ``sequential``); checked mode re-runs the
    reference and asserts equivalence."""
    kind = _bulk_kind(predictor)
    path = "sequential" if kind is None else "vector"
    with telemetry.span(
        "replay", scheme=scheme.name, workload=workload.name
    ) as replay_span:
        replay_span.tag(path=path)
        telemetry.count(f"replay.{path}")
        if scheme.kind == "levelpred":
            telemetry.count("replay.levelpred")
            outputs = replay_level_predictor(stream, predictor, pcs)
        elif scheme.kind == "ehc":
            telemetry.count("replay.ehc")
            outputs = replay_ehc(stream, predictor)
        elif kind == "redhip":
            # The kernel's own name, not the dispatcher: every replay is
            # entered through exactly one public replay function, so a
            # profiler wrapping those functions counts each replay once.
            outputs = vector_replay.replay_redhip_vectorized(stream, predictor)
        else:
            outputs = replay_predictor(stream, predictor)
        if checked and kind is not None:
            with telemetry.span("replay_equivalence_check"):
                _assert_replay_equivalent(
                    stream, scheme, machine, predictor, outputs, pcs
                )
    return outputs


class _Tail(NamedTuple):
    """The evaluation options every scheme charges identically."""

    fill_energy_weight: float
    memory_latency: float
    memory_energy_nj: float
    mlp: float
    dram: object


class _Routes(NamedTuple):
    """One scheme's per-access decisions, ready for the charging kernel
    (which reads them at L1 misses only)."""

    route: np.ndarray      # ROUTE_* per access (repro.sim.charging)
    consulted: np.ndarray  # bool per access: pays a table lookup
    predictor: object = None
    stall: float = 0.0
    skips: int = 0
    false_positives: int = 0
    #: Checked-mode invariant over the finished result, or None.
    check: "Callable[[SchemeResult], None] | None" = None


def _settle(
    kernel: ChargingKernel,
    ledger: EnergyLedger,
    lat: np.ndarray,
    stream: OutcomeStream,
    machine: MachineConfig,
    scheme: SchemeSpec,
    workload: Workload,
    tail: _Tail,
    routes: _Routes,
    level_tallies: dict[int, tuple[int, int]],
) -> SchemeResult:
    """Charge what every scheme pays after its level probes — memory,
    fills, MLP, predictor maintenance, timing, static energy — and
    assemble the :class:`SchemeResult`."""
    n = stream.num_accesses
    tallies = stream.tallies(machine.cores)

    # ---- main memory (the paper's free data store unless configured) -----
    kernel.charge_memory_bulk(
        ledger, lat, stream.hit_level, stream.block, tallies.true_misses,
        memory_latency=tail.memory_latency,
        memory_energy_nj=tail.memory_energy_nj, dram=tail.dram,
    )

    # ---- fills (optional accounting, identical across schemes) -----------
    kernel.charge_fills_bulk(ledger, tallies.hit_counts, tail.fill_energy_weight)

    # ---- memory-level parallelism (1.0 = the paper's serialized model) ---
    lat = kernel.mlp_adjust(lat, tail.mlp)

    # ---- predictor maintenance -------------------------------------------
    predictor = routes.predictor
    predictor_stats: dict = {}
    if predictor is not None:
        kernel.charge_predictor_maintenance(
            ledger, getattr(predictor, "table_updates", 0),
            predictor.maintenance_energy_nj(),
        )
        predictor_stats = predictor.stats()

    # ---- timing ------------------------------------------------------------
    timing = kernel.run_timing(
        core_ids=stream.core,
        gaps=stream.gap,
        latencies=lat,
        cpis=workload.cpis,
        stall_cycles=routes.stall,
        gap_sums=tallies.gap_sums,
    )
    static_nj = kernel.static_energy_nj(
        timing.exec_cycles, include_pt=scheme.consults_table
    )

    # ---- per-level accounting under this scheme ---------------------------
    level_lookups = {1: n}
    level_hits = {1: n - tallies.l1_misses}
    for level, (n_reach, n_hits) in level_tallies.items():
        level_lookups[level] = n_reach
        level_hits[level] = n_hits
    hit_rates = {
        lvl: (level_hits[lvl] / level_lookups[lvl] if level_lookups[lvl] else 0.0)
        for lvl in level_lookups
    }

    return SchemeResult(
        scheme=scheme.name,
        workload=workload.name,
        machine=machine.name,
        timing=timing,
        ledger=ledger,
        static_nj=static_nj,
        hit_rates=hit_rates,
        level_lookups=level_lookups,
        level_hits=level_hits,
        l1_misses=tallies.l1_misses,
        skips=routes.skips,
        false_positives=routes.false_positives,
        true_misses=tallies.true_misses,
        recal_stall_cycles=routes.stall,
        predictor_stats=predictor_stats,
    )


def evaluate_scheme(
    stream: OutcomeStream,
    machine: MachineConfig,
    scheme: SchemeSpec,
    workload: Workload,
    fill_energy_weight: float = 0.0,
    memory_latency: float = 0.0,
    memory_energy_nj: float = 0.0,
    mlp: float = 1.0,
    dram=None,
    checked: "bool | None" = None,
) -> SchemeResult:
    """Attribute latency and energy of ``scheme`` over the content stream.

    ``memory_latency``/``memory_energy_nj`` default to the paper's free
    data store; when non-zero, every memory-served access is charged the
    same way under every scheme (prediction changes which *caches* are
    probed, never whether memory is reached), which dilutes relative gains
    — the sensitivity the ``ext-memory`` experiment studies.

    ReDHiP, CBF, level prediction and EHC replay through their bulk NumPy
    kernels (:mod:`repro.sim.vector_replay`) unless
    ``REPRO_NO_VECTOR_REPLAY`` is set; ``checked`` (default: the
    ``REPRO_CHECKED`` environment) also replays the reference loop and
    raises if the two diverge in any observable — the equivalence oracle
    for the kernels.

    Every scheme reduces to per-access routes (walk, skip, single probe,
    dead LLC) plus table-consult flags; the charging kernel turns those
    into latency and energy in one table-driven pass.
    """
    if checked is None:
        checked = checking.enabled(None)
    tail = _Tail(fill_energy_weight, memory_latency, memory_energy_nj, mlp, dram)
    if scheme.kind in ("levelpred", "oracle_level"):
        decide = _route_levelpred
    elif scheme.kind == "ehc":
        decide = _route_ehc
    else:
        decide = _route_presence
    routes = decide(stream, machine, scheme, workload, checked)

    kernel = ChargingKernel.for_scheme(machine, scheme)
    # The accounting stages below are pure NumPy over frozen arrays; the
    # span makes their share of the wall time visible in `repro stats`.
    with telemetry.span("energy_accounting", scheme=scheme.name,
                        workload=workload.name):
        ledger = EnergyLedger()
        lat, level_tallies = kernel.charge_accesses(
            ledger, stream.hit_level, stream.hit_rank, routes.route,
            routes.consulted,
        )
        result = _settle(kernel, ledger, lat, stream, machine, scheme,
                         workload, tail, routes, level_tallies)
    if checked and routes.check is not None:
        routes.check(result)
    return result


def _no_false_negatives(scheme: SchemeSpec, skipped_hits: np.ndarray) -> None:
    """Raise if any access skipped as a predicted miss hit a cache."""
    fn = int(np.count_nonzero(skipped_hits))
    if fn:
        raise ReproError(
            f"scheme {scheme.name!r} produced {fn} false negatives — "
            "it would serve stale data in hardware"
        )


def _route_presence(stream, machine, scheme, workload, checked) -> _Routes:
    """Base, oracle, phased, way-prediction and presence predictors.

    A predicted LLC miss skips every level below L1 (for schemes that
    skip); everything else walks serially from L2.
    """
    h = stream.hit_level
    n = stream.num_accesses
    predictor = None
    stall = 0.0
    consulted = np.zeros(n, dtype=bool)
    if scheme.kind == "predictor":
        predictor = scheme.build_predictor(machine)
        predicted, consulted, stall = _replay(
            stream, machine, scheme, workload, predictor, checked
        )
        absent = ~predicted
        _no_false_negatives(scheme, absent & (h >= 2))
    elif scheme.kind == "oracle":
        absent = h == 0
    else:
        absent = np.zeros(n, dtype=bool)

    skips = int(np.count_nonzero(absent & (h == 0)))
    false_positives = 0
    if scheme.skips_on_predicted_miss:
        route = np.multiply(absent, ROUTE_SKIP, dtype=np.uint8)
        false_positives = stream.tallies(machine.cores).true_misses - skips
    else:
        route = np.full(n, ROUTE_WALK, dtype=np.uint8)
    return _Routes(route, consulted, predictor, stall, skips, false_positives)


def _route_levelpred(stream, machine, scheme, workload, checked) -> _Routes:
    """Level prediction (``levelpred``) and its oracle (``oracle_level``).

    Access flow per L1 miss: a confident presence miss skips every level
    (ReDHiP's move); a confident level prediction pays exactly one probe
    at the predicted level, plus — on a mispredict — the full serial
    recovery walk from L2; no confident prediction walks serially.  The
    oracle variant probes exactly the true hit level with no table.
    """
    h = stream.hit_level
    miss_mask = h != 1
    true_misses = stream.tallies(machine.cores).true_misses
    if scheme.kind == "levelpred":
        predictor = scheme.build_predictor(machine)
        pcs = _per_access_pcs(stream, workload)
        pred_level, confident, stall = _replay(
            stream, machine, scheme, workload, predictor, checked, pcs
        )
        confident = confident & miss_mask
        skip_mask = confident & (pred_level == 0)
        _no_false_negatives(scheme, skip_mask & (h >= 2))
        skips = int(np.count_nonzero(skip_mask))
        false_positives = true_misses - int(np.count_nonzero(skip_mask & (h == 0)))
    else:  # oracle_level: perfect level knowledge, no hardware
        predictor, stall = None, 0.0
        pred_level, confident = h, miss_mask
        skips, false_positives = true_misses, 0

    # A confident prediction of level p >= 2 is a single probe there (the
    # kernel adds the recovery walk when p is not the hit level); of
    # memory, a skip.
    route = pred_level.astype(np.uint8)
    route += ROUTE_SINGLE
    np.maximum(route, ROUTE_SKIP, out=route)
    route *= confident  # unconfident: ROUTE_WALK
    consulted = miss_mask if scheme.consults_table else np.zeros_like(miss_mask)

    def check(result: SchemeResult) -> None:
        single = confident & (pred_level >= 2)
        mispredict = single & (h != pred_level)
        unconfident = miss_mask & ~confident
        walk = unconfident | mispredict
        checking.check_levelpred_conservation(
            ctx=checking.evaluation_context(machine.name, workload.name,
                                            scheme.name),
            l1_misses=result.l1_misses,
            skips=skips,
            correct_singles=int(np.count_nonzero(single & ~mispredict)),
            mispredicts=int(np.count_nonzero(mispredict)),
            unconfident=int(np.count_nonzero(unconfident)),
            walks=int(np.count_nonzero(walk)),
            walk_reach_l2=int(np.count_nonzero(walk & ((h == 0) | (h >= 2)))),
        )

    return _Routes(route, consulted, predictor, stall, skips, false_positives,
                   check if scheme.kind == "levelpred" else None)


def _route_ehc(stream, machine, scheme, workload, checked) -> _Routes:
    """Expected-hit-count evaluation: full walk, but LLC probes for
    predicted-dead blocks degrade to phased (tag-then-data) mode.

    No level is ever skipped, so ``skips``/``false_positives`` stay 0 and
    there is no false-negative hazard — the prediction only chooses how
    the LLC probe is issued.
    """
    predictor = scheme.build_predictor(machine)
    dead, stall = _replay(stream, machine, scheme, workload, predictor, checked)

    def check(result: SchemeResult) -> None:
        checking.check_ehc_counters(
            predictor,
            checking.evaluation_context(machine.name, workload.name,
                                        scheme.name),
        )

    route = np.multiply(dead, ROUTE_DEAD, dtype=np.uint8)
    return _Routes(route, stream.hit_level != 1, predictor, stall, check=check)
