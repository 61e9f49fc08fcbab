"""Simulation engines: the two-phase flow (content walk + scheme
evaluation), the integrated single-pass reference simulator, and the
caching experiment runner."""

from repro._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "repro.sim.config": ("SimConfig", "bench_config", "default_recal_period"),
    "repro.sim.content": ("ContentSimulator",),
    "repro.sim.evaluate": ("SchemeResult", "evaluate_scheme",
                           "replay_predictor"),
    "repro.sim.integrated": ("IntegratedSimulator", "PrefetchConfig"),
    "repro.sim.parallel": ("default_workers", "prewarm_streams"),
    "repro.sim.report": ("ExperimentResult", "add_average",
                         "dynamic_energy_table", "format_table",
                         "hit_rate_table", "perf_energy_table",
                         "speedup_table"),
    "repro.sim.runner": ("ExperimentRunner",),
    "repro.sim.streamcache": ("StreamCache", "resolve_cache", "stream_key"),
    "repro.sim.vector_replay": ("replay_redhip_vectorized",),
    "repro.workloads.shared": ("merge_order",),
})
