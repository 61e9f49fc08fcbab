"""Per-figure/table experiment modules, the declarative specs that
describe them, and the registry that maps every paper artifact id to a
runnable regeneration."""

from repro._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "repro.experiments.context": ("clear_cache", "default_config", "get_runner"),
    "repro.experiments.driver": ("ExperimentSpec", "run_spec"),
    "repro.experiments.registry": ("EXPERIMENTS", "SPECS", "experiment_ids",
                                   "get_spec", "run_experiment"),
})
