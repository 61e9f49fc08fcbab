"""Workload substrate — the substitute for the paper's Pin traces.

Provides the 8 SPEC 2006 benchmark models, the Graph500/CombBLAS BFS and
GraphLab-PMF application tracers, the multiprogrammed ``mix``, and the
top-level :func:`get_workload` registry used by every experiment.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "repro.workloads.graph500": ("build_graph500_trace",),
    "repro.workloads.mix": ("build_mix_workload",),
    "repro.workloads.names": ("EXTENDED_NAMES", "PAPER_WORKLOADS",
                              "SPEC_NAMES"),
    "repro.workloads.pmf": ("build_pmf_trace",),
    "repro.workloads.registry": ("get_workload", "get_workload_stream"),
    "repro.workloads.shared": ("BlockChunk", "BlockRef", "BlockStreamIterator",
                               "build_shared_workload", "iter_refs",
                               "merge_order", "trace_block_stream",
                               "workload_block_stream"),
    "repro.workloads.spec": ("EXTENDED_MODELS", "SPEC_MODELS",
                             "BenchmarkModel", "build_extended_trace",
                             "build_spec_trace"),
    "repro.workloads.synthetic": ("Component", "Region", "assemble_mixture"),
    "repro.workloads.trace": ("ASID_STRIDE", "Trace", "Workload",
                              "duplicate_for_cores", "per_core_address_space"),
    "repro.workloads.tracefile": ("load_workload", "save_workload"),
})
