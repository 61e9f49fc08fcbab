"""Sweep orchestrator: grid specs -> sharded execution -> results store.

The simulation-as-a-service backbone.  A :class:`SweepSpec`
(:mod:`repro.sweep.spec`) expands a declarative grid — machine x scheme x
workload x PT size x recalibration period x probe mode — into concrete
cells with stable content-addressed fingerprints; the scheduler
(:mod:`repro.sweep.scheduler`) shards the cells over worker processes
(sharing the persistent stream cache, inheriting
:mod:`repro.sim.parallel`'s worker-loss/timeout/serial-fallback policies)
and lands every completed cell as one row in an append-only SQLite store
(:mod:`repro.results.store`).  A killed sweep restarts and skips every
fingerprint already in the store; ``repro sweep`` / ``repro query`` are
the CLI verbs.

Observability rides alongside: the scheduler parent streams every
lifecycle event to an NDJSON journal (:mod:`repro.sweep.journal`) next
to the store, ``repro watch`` (:mod:`repro.sweep.watch`) renders a live
or snapshot view of it, and ``repro report`` (:mod:`repro.sweep.report`)
folds journal + store + bench history into one post-run artifact.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "repro.sweep.journal": ("JOURNAL_SCHEMA", "SweepJournal", "journal_path",
                            "read_journal"),
    "repro.sweep.scheduler": ("SweepReport", "run_cells", "run_sweep",
                              "shard_cells"),
    "repro.sweep.spec": ("CellSpec", "SweepSpec", "load_sweep"),
})
