"""The charging kernel: single source of per-access latency/energy charges.

Both simulation paths — the two-phase evaluator
(:mod:`repro.sim.evaluate`, including the vectorized replay's bulk
accounting) and the integrated single-pass simulator
(:mod:`repro.sim.integrated`, including its exclusive-ReDHiP and prefetch
branches) — attribute every cycle and nanojoule through this module.  No
latency/energy arithmetic lives anywhere else in the simulation layer;
``scripts/check_charging_drift.py`` enforces that in CI.

The model (§III-§IV of the paper):

Latency per access
    * every access pays the L1 access delay;
    * predictor schemes add the prediction-table lookup delay (SRAM +
      wire) to every *consulted* L1 miss — "a delay between the L1 and L2
      accesses";
    * each probed level costs its access delay on a hit and its *tag*
      delay on a miss (a parallel probe discovers the miss at tag-compare
      time); a phased level costs tag+data on a hit (serialized) and tag
      on a miss; a way-predicted level costs the access delay on an MRU
      hit, access+data on a non-MRU hit, tag on a miss;
    * main memory is free unless a latency/energy or DRAM model is
      configured — by default all gains come from skipped lookups.

Dynamic energy per access
    * a parallel probe fires both arrays regardless of outcome (the waste
      ReDHiP eliminates); a phased probe fires tag always, data on hit; a
      way-predicted probe fires tag plus a single speculative data way
      (``data_energy / assoc``), plus a second way on a non-MRU hit;
    * predictor schemes pay a table access per consulted lookup and per
      table update, plus recalibration sweep energy;
    * prefetch probes charge the parallel-probe energy under the
      dedicated ``prefetch`` category so reports can split demand from
      prefetch traffic;
    * the Oracle pays nothing (a bound, "not an actual scheme").

Structure
    :class:`ProbePlan` captures a scheme's per-level probe decision
    (parallel / phased / waypred); :class:`AccessCharge` is the
    introspectable description of one probe's charges; and
    :class:`ChargingKernel` applies them, with a scalar API for the
    integrated per-access loop and a bulk NumPy API for the two-phase
    evaluator.  The bulk API codes every L1 miss by route, table consult,
    MRU-way hit and hit level, and charges the codes from one per-code
    latency table built from the scalar probe charge.  Scalar and bulk
    share the same precomputed per-level constants, which is what makes
    the integrated ≡ two-phase equivalence exact rather than approximate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.energy.accounting import CostTable, EnergyLedger, StaticEnergyModel
from repro.energy.params import MachineConfig
from repro.energy.timing import TimingModel, TimingResult

__all__ = [
    "CAT_PROBE",
    "CAT_TAG",
    "CAT_DATA",
    "CAT_LOOKUP",
    "CAT_UPDATE",
    "CAT_RECAL",
    "CAT_PREFETCH",
    "CAT_ACCESS",
    "CAT_FILL",
    "ENERGY_CATEGORIES",
    "COMPONENT_PT",
    "COMPONENT_MEM",
    "PROBE_PARALLEL",
    "PROBE_PHASED",
    "PROBE_WAYPRED",
    "ROUTE_WALK",
    "ROUTE_DEAD",
    "ROUTE_SKIP",
    "ROUTE_SINGLE",
    "AccessCharge",
    "ProbePlan",
    "ChargingKernel",
    "recal_stall_cycles",
    "resolve_dram_model",
]

# Ledger categories.  Every (component, category) key written by either
# simulation path uses one of these names; reports index them directly.
CAT_PROBE = "probe"        # parallel tag+data probe
CAT_TAG = "tag"            # tag-array access (phased / waypred)
CAT_DATA = "data"          # data-array access (phased hit / waypred way)
CAT_LOOKUP = "lookup"      # prediction-table lookup
CAT_UPDATE = "update"      # prediction-table update
CAT_RECAL = "recal"        # recalibration sweep energy
CAT_PREFETCH = "prefetch"  # prefetch-issued probe
CAT_ACCESS = "access"      # main-memory access
CAT_FILL = "fill"          # optional fill accounting

#: Every category the kernel can charge, in report order.
ENERGY_CATEGORIES = (
    CAT_PROBE, CAT_TAG, CAT_DATA, CAT_LOOKUP, CAT_UPDATE, CAT_RECAL,
    CAT_PREFETCH, CAT_ACCESS, CAT_FILL,
)

COMPONENT_PT = "PT"
COMPONENT_MEM = "MEM"

# Per-level probe modes.
PROBE_PARALLEL = "parallel"
PROBE_PHASED = "phased"
PROBE_WAYPRED = "waypred"

# Per-access routes below L1 (the ``route`` field of a charging code).
ROUTE_WALK = 0    # serial walk from L2 in the plan's modes
ROUTE_DEAD = 1    # serial walk, the LLC probed phased (EHC predicted dead)
ROUTE_SKIP = 2    # no probe below L1 (predicted miss)
ROUTE_SINGLE = 1  # offset: route ROUTE_SINGLE + p (p >= 2) is one probe at
                  # level p, plus the serial walk when p is not the hit level

# Charge passes per level, in ledger order.
_PASS_WALK, _PASS_DEAD, _PASS_SINGLE = range(3)


@dataclass(frozen=True)
class ProbePlan:
    """A scheme's per-level probe decision: ``modes[level - 1]`` for
    levels ``1 .. num_levels``.

    The plan covers *how a probed level is accessed*; whether a level is
    probed at all (predictor skip, oracle skip, hit short-circuit) is the
    simulator's control flow and stays outside the kernel.
    """

    modes: tuple[str, ...]

    def __post_init__(self) -> None:
        for mode in self.modes:
            if mode not in (PROBE_PARALLEL, PROBE_PHASED, PROBE_WAYPRED):
                raise ValueError(f"unknown probe mode {mode!r}")

    @classmethod
    def all_parallel(cls, num_levels: int) -> "ProbePlan":
        return cls(modes=(PROBE_PARALLEL,) * num_levels)

    @classmethod
    def for_scheme(cls, num_levels: int, scheme) -> "ProbePlan":
        """Plan for anything with ``phased_levels``/``way_predicted_levels``
        (duck-typed so this module never imports the predictor layer)."""
        modes = []
        for level in range(1, num_levels + 1):
            if level in scheme.phased_levels:
                modes.append(PROBE_PHASED)
            elif level in scheme.way_predicted_levels:
                modes.append(PROBE_WAYPRED)
            else:
                modes.append(PROBE_PARALLEL)
        return cls(modes=tuple(modes))

    def mode(self, level: int) -> str:
        return self.modes[level - 1]


@dataclass(frozen=True)
class AccessCharge:
    """One probe's charges, spelled out: latency plus ledger line items.

    The hot loops use :meth:`ChargingKernel.charge_probe` (same numbers,
    no allocation); this form exists for introspection, reports and the
    kernel's own unit tests, and :meth:`apply` is guaranteed to produce
    exactly what the fast path charges.
    """

    latency: float
    charges: tuple[tuple[str, str, float, int], ...]

    @property
    def energy_nj(self) -> float:
        return float(sum(e * c for (_, _, e, c) in self.charges))

    def apply(self, ledger: EnergyLedger) -> float:
        for component, category, unit_nj, count in self.charges:
            ledger.charge(component, category, unit_nj, count)
        return self.latency


class ChargingKernel:
    """Applies the charging model for one (machine, probe plan) pair.

    Scalar methods serve the integrated per-access loop; ``*_bulk``
    methods serve the two-phase evaluator's NumPy accounting.  Both read
    the same precomputed per-level constants.
    """

    def __init__(
        self,
        machine: MachineConfig,
        plan: ProbePlan | None = None,
        lookup_energy_nj: float | None = None,
        lookup_delay: int | None = None,
    ) -> None:
        self.machine = machine
        num_levels = machine.num_levels
        if plan is None:
            plan = ProbePlan.all_parallel(num_levels)
        if len(plan.modes) != num_levels:
            raise ValueError(
                f"probe plan covers {len(plan.modes)} levels, "
                f"machine has {num_levels}"
            )
        self.plan = plan
        self.num_levels = num_levels
        costs = CostTable(machine)
        self.costs = costs
        rng = range(1, num_levels + 1)
        # Index by level number; slot 0 is padding.
        self.tag_d = [0] + [costs.level_tag_delay(j) for j in rng]
        self.par_d = [0] + [costs.level_parallel_delay(j) for j in rng]
        self.dat_d = [0] + [costs.level_data_delay(j) for j in rng]
        self.tag_e = [0.0] + [costs.level_tag_energy(j) for j in rng]
        self.data_e = [0.0] + [costs.level_data_energy(j) for j in rng]
        self.par_e = [0.0] + [costs.level_parallel_energy(j) for j in rng]
        self.way_e = [0.0] + [
            costs.level_data_energy(j) / machine.level(j).assoc for j in rng
        ]
        self.names = [""] + [machine.level(j).name for j in rng]
        self.modes = ("",) + plan.modes
        self.lookup_energy_nj = (
            lookup_energy_nj if lookup_energy_nj is not None
            else machine.prediction_table.access_energy
        )
        self.lookup_delay = (
            lookup_delay if lookup_delay is not None
            else machine.prediction_table.lookup_delay
        )
        self.pt_update_energy = costs.pt_update_energy

    @classmethod
    def for_scheme(cls, machine: MachineConfig, scheme) -> "ChargingKernel":
        """Kernel for a :class:`~repro.predictors.base.SchemeSpec`: its
        probe plan plus its resolved table-lookup cost."""
        return cls(
            machine,
            plan=scheme.probe_plan(machine.num_levels),
            lookup_energy_nj=scheme.resolve_lookup_energy(machine),
            lookup_delay=scheme.resolve_lookup_delay(machine),
        )

    # ------------------------------------------------------------- scalar
    def charge_l1(self, ledger: EnergyLedger) -> float:
        """Every access starts with one L1 parallel probe."""
        ledger.charge(self.names[1], CAT_PROBE, self.par_e[1], 1)
        return float(self.par_d[1])

    def charge_probe(self, ledger: EnergyLedger, level: int, hit: bool,
                     rank: int = -1, mode: str | None = None) -> float:
        """Charge one demand probe at ``level``; returns its latency.

        ``mode`` overrides the plan's probe mode for this one probe —
        how EHC's predicted-dead LLC probes degrade to phased while the
        rest of the walk keeps the plan's discipline.  ``None`` (the
        default, and every pre-existing call site) charges the plan mode.
        """
        if mode is None:
            mode = self.modes[level]
        self._charge_level(ledger, level, mode, 1, int(hit),
                           int(hit and rank != 0))
        return self._delay(level, mode, hit, rank == 0)

    def _delay(self, level: int, mode: str, hit: bool, rank0: bool):
        """Latency of one probe: access delay on a hit, tag delay on a
        miss; a phased hit serializes tag+data, a way-predicted hit off
        the MRU way pays the data delay again."""
        if not hit:
            return self.tag_d[level]
        if mode == PROBE_PHASED:
            return self.tag_d[level] + self.dat_d[level]
        if mode == PROBE_WAYPRED and not rank0:
            return self.par_d[level] + self.dat_d[level]
        return self.par_d[level]

    def _charge_level(self, ledger: EnergyLedger, level: int, mode: str,
                      n_reach: int, n_hits: int, n_slow: int) -> None:
        """Energy of ``n_reach`` probes at ``level`` of which ``n_hits``
        hit, ``n_slow`` of those off the MRU way (read by waypred only)."""
        name = self.names[level]
        if mode == PROBE_PHASED:
            ledger.charge(name, CAT_TAG, self.tag_e[level], n_reach)
            ledger.charge(name, CAT_DATA, self.data_e[level], n_hits)
        elif mode == PROBE_WAYPRED:
            ledger.charge(name, CAT_TAG, self.tag_e[level], n_reach)
            ledger.charge(name, CAT_DATA, self.way_e[level], n_reach)
            ledger.charge(name, CAT_DATA, self.way_e[level], n_slow)
        else:
            ledger.charge(name, CAT_PROBE, self.par_e[level], n_reach)

    def describe_probe(self, level: int, hit: bool, rank: int = -1) -> AccessCharge:
        """The :class:`AccessCharge` form of :meth:`charge_probe`."""
        probe = EnergyLedger()
        latency = self.charge_probe(probe, level, hit, rank)
        charges = tuple(
            (c, cat, probe.energy_nj[(c, cat)] / probe.counts[(c, cat)], probe.counts[(c, cat)])
            for (c, cat) in probe.energy_nj
        )
        return AccessCharge(latency=float(latency), charges=charges)

    def charge_lookup(self, ledger: EnergyLedger, count: int = 1) -> float:
        """Prediction-table lookup: energy per consulted table, one wire
        delay (tables are consulted in parallel)."""
        ledger.charge(COMPONENT_PT, CAT_LOOKUP, self.lookup_energy_nj, count)
        return self.lookup_delay

    def charge_memory(self, ledger: EnergyLedger, latency: float,
                      energy_nj: float) -> float:
        """One memory-served access under the flat memory model."""
        if energy_nj > 0.0:
            ledger.charge(COMPONENT_MEM, CAT_ACCESS, energy_nj, 1)
        return latency

    def charge_dram(self, ledger: EnergyLedger, dram_model, block: int) -> float:
        """One memory-served access through a pattern-dependent DRAM model."""
        d_lat, d_energy = dram_model.access(block)
        ledger.charge(COMPONENT_MEM, CAT_ACCESS, d_energy, 1)
        return d_lat

    def charge_prefetch_probes(self, ledger: EnergyLedger, found_level: int) -> None:
        """Probes issued by one prefetch request, charged under the
        ``prefetch`` category (parallel-probe energy, no demand latency)."""
        top = found_level if found_level >= 2 else self.num_levels
        for level in range(2, top + 1):
            ledger.charge(self.names[level], CAT_PREFETCH, self.par_e[level], 1)

    def mlp_adjust(self, lat, mlp: float):
        """Memory-level parallelism: overlap everything beyond the L1
        delay by ``mlp`` (1.0 = the paper's serialized model).  Works on
        scalars and arrays."""
        if mlp == 1.0:
            return lat
        d1 = float(self.par_d[1])
        return d1 + (lat - d1) / mlp

    # --------------------------------------------------------------- bulk
    @property
    def num_codes(self) -> int:
        """Size of the access code space (see :meth:`charge_accesses`)."""
        return (self.num_levels + 2) * 4 * (self.num_levels + 1)

    def _probes(self, code: int):
        """``(level, pass, mode, hit)`` of every probe a coded access
        makes, in the order its latency adds them: per level the walk
        (or dead) probe, then the single predicted-level probe."""
        num_levels = self.num_levels
        h = code % (num_levels + 1)
        route = code // (num_levels + 1) // 4
        single = route - ROUTE_SINGLE if route >= ROUTE_SINGLE + 2 else 0
        walks = route in (ROUTE_WALK, ROUTE_DEAD) or (single and single != h)
        for level in range(2, num_levels + 1):
            if walks and (h == 0 or h >= level):
                if route == ROUTE_DEAD and level == num_levels:
                    yield level, _PASS_DEAD, PROBE_PHASED, h == level
                else:
                    yield level, _PASS_WALK, self.modes[level], h == level
            if level == single:
                yield level, _PASS_SINGLE, self.modes[level], h == level

    def _code_table(self):
        """Per-code latency and the (level, pass) probe tally matrix.

        Each latency entry makes exactly the float additions the charge
        order implies — L1, then the lookup, then each probe — so the
        gathered per-access latency is bit-identical to adding them one
        probe at a time.  ``tally[:, k]`` holds code ``k``'s ``(reach,
        hit, slow hit)`` membership in each (level, pass) group.
        """
        groups = [(level, kind) for level in range(2, self.num_levels + 1)
                  for kind in (_PASS_WALK, _PASS_DEAD, _PASS_SINGLE)]
        row = {group: 3 * i for i, group in enumerate(groups)}
        latency = np.empty(self.num_codes, dtype=np.float64)
        tally = np.zeros((3 * len(groups), self.num_codes), dtype=np.int64)
        for code in range(self.num_codes):
            flags = code // (self.num_levels + 1)
            rank0, consulted = flags % 2 == 1, flags // 2 % 2 == 1
            lat = float(self.par_d[1])
            if consulted:
                lat += self.lookup_delay
            for level, kind, mode, hit in self._probes(code):
                lat += self._delay(level, mode, hit, rank0)
                r = row[(level, kind)]
                tally[r:r + 3, code] = (1, hit, hit and not rank0)
            latency[code] = lat
        return latency, groups, tally

    def charge_accesses(
        self,
        ledger: EnergyLedger,
        hit_level: np.ndarray,
        hit_rank: np.ndarray,
        route: np.ndarray,
        consulted: np.ndarray,
    ) -> tuple[np.ndarray, dict[int, tuple[int, int]]]:
        """Charge L1, table lookups and every level probe of each access.

        Each L1 miss is coded as ``((route * 2 + consulted) * 2 + rank0)
        * (num_levels + 1) + hit_level`` — everything that decides its
        probes, in a few dozen distinct values.  ``route`` is a
        ``ROUTE_*`` value (``ROUTE_SINGLE + p`` for a single probe at
        level ``p``), ``consulted`` the table-lookup flag and ``rank0``
        whether the hit was in the MRU way (read for way-predicted levels
        only).  Latency is one gather from the per-code table; energy is
        charged from the code counts.  An L1 hit pays the L1 probe alone
        (tables are consulted on L1 misses only), so it is not coded.

        Returns the per-access latency and the per-level ``(lookups,
        hits)`` tallies of levels ``2 .. num_levels``.
        """
        at = np.flatnonzero(hit_level != 1)
        code = route[at].astype(
            np.uint8 if self.num_codes <= 256 else np.uint16, copy=False)
        code *= 2
        code += consulted[at]
        code *= 2
        if PROBE_WAYPRED in self.plan.modes:
            code += hit_rank[at] == 0
        code *= self.num_levels + 1
        code += hit_level[at].view(np.uint8)

        latency, groups, tally = self._code_table()
        counts = np.bincount(code, minlength=self.num_codes)
        ledger.charge(self.names[1], CAT_PROBE, self.par_e[1], len(hit_level))
        n_consulted = int(counts.reshape(-1, 2, 2, self.num_levels + 1)[:, 1].sum())
        ledger.charge(COMPONENT_PT, CAT_LOOKUP, self.lookup_energy_nj, n_consulted)
        tallies: dict[int, tuple[int, int]] = {}
        sums = (tally @ counts).reshape(-1, 3).tolist()
        for (level, kind), (n_reach, n_hits, n_slow) in zip(groups, sums):
            mode = PROBE_PHASED if kind == _PASS_DEAD else self.modes[level]
            self._charge_level(ledger, level, mode, n_reach, n_hits, n_slow)
            reach, hits = tallies.get(level, (0, 0))
            tallies[level] = (reach + n_reach, hits + n_hits)

        lat = np.full(len(hit_level), float(self.par_d[1]))
        lat[at] = latency[code]
        return lat, tallies

    def charge_memory_bulk(
        self,
        ledger: EnergyLedger,
        lat: np.ndarray,
        hit_level: np.ndarray,
        blocks: np.ndarray,
        true_misses: int,
        memory_latency: float = 0.0,
        memory_energy_nj: float = 0.0,
        dram=None,
    ) -> None:
        """Memory charges for every memory-served access.

        With a DRAM model the memory accesses replay in run order — the
        trajectory is scheme-independent, so every scheme sees the same
        bank/row sequence (each evaluation replays a fresh model).
        """
        if dram is not None:
            mem_mask = hit_level == 0
            model = resolve_dram_model(dram)
            mem_lat, mem_energy = model.access_stream(blocks[mem_mask])
            lat[mem_mask] += mem_lat
            ledger.counts[(COMPONENT_MEM, CAT_ACCESS)] += true_misses
            ledger.energy_nj[(COMPONENT_MEM, CAT_ACCESS)] += float(mem_energy.sum())
            return
        if memory_latency > 0.0:
            lat[hit_level == 0] += memory_latency
        if memory_energy_nj > 0.0:
            ledger.charge(COMPONENT_MEM, CAT_ACCESS, memory_energy_nj, true_misses)

    def charge_fills_bulk(self, ledger: EnergyLedger, hit_counts: np.ndarray,
                          weight: float) -> None:
        """Optional fill accounting (identical across schemes): every
        level is filled by memory fetches, plus by hits below it.
        ``hit_counts[j]`` counts the accesses level ``j`` served (0 =
        memory)."""
        if weight <= 0.0:
            return
        for level in range(1, self.num_levels + 1):
            fills = int(hit_counts[0]) + int(hit_counts[level + 1:].sum())
            ledger.charge(
                self.names[level], CAT_FILL, weight * self.data_e[level], fills
            )

    # -------------------------------------------------------- maintenance
    def charge_predictor_maintenance(self, ledger: EnergyLedger,
                                     table_updates: int, recal_nj: float) -> None:
        """Table updates (one PT access each) plus recalibration energy."""
        ledger.charge(
            COMPONENT_PT, CAT_UPDATE, self.pt_update_energy, int(table_updates)
        )
        if recal_nj:
            ledger.charge(COMPONENT_PT, CAT_RECAL, recal_nj, 1)

    # ------------------------------------------------------ timing/static
    def run_timing(self, core_ids, gaps, latencies, cpis,
                   stall_cycles: float, gap_sums=None) -> TimingResult:
        """Fold per-access latencies into per-core cycles."""
        return TimingModel(self.machine).run(
            core_ids=core_ids, gaps=gaps, latencies=latencies, cpis=cpis,
            stall_cycles=stall_cycles, gap_sums=gap_sums,
        )

    def static_energy_nj(self, exec_cycles: float, include_pt: bool) -> float:
        """Leakage over the run; the PT leaks only for table schemes."""
        return StaticEnergyModel(self.machine).static_energy_nj(
            exec_cycles, include_pt=include_pt
        )


def recal_stall_cycles(sweeps: int, cost) -> float:
    """Total stall cycles for ``sweeps`` recalibration sweeps at
    ``cost.cycles`` each (shared by the replay kernels)."""
    return float(sweeps * cost.cycles)


def resolve_dram_model(dram):
    """DRAM model for a config's ``dram`` field (``None`` -> no model).

    Keeps the DramModel constructor inside the charging layer so the
    simulation paths never name a cost model directly."""
    if dram is None:
        return None
    from repro.energy.dram import DramConfig, DramModel

    return DramModel(dram if isinstance(dram, DramConfig) else None)
