"""ReDHiP reproduction: Recalibrating Deep Hierarchy Prediction (IPPS 2014).

Public API tour
---------------

Machines and schemes::

    from repro import get_machine, redhip_scheme, base_scheme, cbf_scheme
    machine = get_machine("scaled")          # or "paper"

Run one experiment end to end::

    from repro import SimConfig, ExperimentRunner, oracle_scheme, phased_scheme
    cfg = SimConfig(machine=machine, refs_per_core=50_000)
    runner = ExperimentRunner(cfg)
    base = runner.run("mcf", base_scheme())
    redhip = runner.run("mcf", redhip_scheme(recal_period=cfg.recal_period))
    print(redhip.speedup_over(base), redhip.dynamic_ratio(base))

Regenerate a paper figure::

    from repro.experiments import run_experiment
    result = run_experiment("fig6", cfg)
    print(result.table)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = lazy_exports(globals(), {
    "repro.checking": ("InvariantViolation", "ReplayBundle"),
    "repro.core.exclusive": ("ExclusiveReDHiP",),
    "repro.core.gating": ("GatedPredictor", "gated_redhip_scheme"),
    "repro.core.prediction_table": ("PredictionTable",),
    "repro.core.recalibration": ("RecalibrationCost", "RecalibrationEngine",
                                 "TagMirror"),
    "repro.core.redhip": ("PAPER_RECAL_PERIOD", "ReDHiPController",
                          "redhip_scheme"),
    "repro.energy.accounting": ("CostTable", "EnergyLedger",
                                "StaticEnergyModel"),
    "repro.energy.cacti": ("CactiModel",),
    "repro.energy.params": ("MachineConfig", "get_machine", "paper_machine",
                            "scaled_machine", "tiny_machine"),
    "repro.energy.timing": ("TimingModel",),
    "repro.hierarchy.events": ("OutcomeStream",),
    "repro.hierarchy.hierarchy": ("CacheHierarchy",),
    "repro.hierarchy.inclusion": ("InclusionPolicy",),
    "repro.hierarchy.replacement": ("LRUCache",),
    "repro.predictors.base": ("PresencePredictor", "SchemeSpec", "base_scheme",
                              "oracle_scheme", "phased_scheme",
                              "waypred_scheme"),
    "repro.predictors.bloom": ("CountingBloomFilter",),
    "repro.predictors.cbf_scheme": ("CBFPredictor", "cbf_scheme"),
    "repro.predictors.missmap": ("MissMapPredictor", "missmap_scheme"),
    "repro.prefetch.stride": ("StridePrefetcher",),
    "repro.sim.config": ("SimConfig", "bench_config"),
    "repro.sim.content": ("ContentSimulator",),
    "repro.sim.evaluate": ("SchemeResult",),
    "repro.sim.integrated": ("IntegratedSimulator", "PrefetchConfig"),
    "repro.sim.report": ("ExperimentResult",),
    "repro.sim.runner": ("ExperimentRunner",),
    "repro.workloads.names": ("PAPER_WORKLOADS",),
    "repro.workloads.registry": ("get_workload",),
    "repro.workloads.trace": ("Trace", "Workload"),
}) + ["__version__"]
