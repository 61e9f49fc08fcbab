"""Trace and result analysis utilities: reuse-distance (stack-distance)
profiling, windowed phase statistics, and multi-seed confidence runs."""

from repro._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "repro.analysis.multiseed": ("MetricEstimate", "MultiSeedResult",
                                 "run_multi_seed"),
    "repro.analysis.phases": ("PhaseStats", "windowed_skip_rate",
                              "windowed_stats"),
    "repro.analysis.reuse": ("COLD", "ReuseProfile", "profile_trace",
                             "reuse_distances"),
})
