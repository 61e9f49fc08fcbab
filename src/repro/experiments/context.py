"""Shared experiment context: default config and runner memoization.

The build-only specs (``intro``, ``fig14-15``, the extensions, the zoo) run
through an :class:`ExperimentRunner`, which caches workloads and content
streams, so it is memoized per config: specs that run back-to-back share
their walks.  Grid specs (Figs. 6-13, ``ext-relwork``, four of the
ablations, the studies) never use it; they share walks through the
stream cache instead (see :mod:`repro.experiments.driver`).
"""

from __future__ import annotations

from repro.sim.config import SimConfig, bench_config
from repro.sim.runner import ExperimentRunner

__all__ = ["get_runner", "default_config", "clear_cache"]

_RUNNERS: dict[tuple, ExperimentRunner] = {}


def default_config() -> SimConfig:
    """Benchmark-layer config from the environment (see ``sim.config``)."""
    return bench_config()


def get_runner(config: SimConfig | None = None) -> ExperimentRunner:
    """Memoized runner for ``config`` (or the environment default).

    The key covers both the content-trajectory identity
    (``cfg.cache_key()``) and every evaluation-side knob, so two configs
    that evaluate differently never share a runner.
    """
    cfg = config or default_config()
    key = cfg.cache_key() + (
        cfg.fill_energy_weight, cfg.memory_latency, cfg.memory_energy_nj,
        cfg.mlp, repr(cfg.dram),
    )
    if key not in _RUNNERS:
        _RUNNERS[key] = ExperimentRunner(cfg)
    return _RUNNERS[key]


def clear_cache() -> None:
    """Drop memoized runners (frees stream memory between suites)."""
    _RUNNERS.clear()
