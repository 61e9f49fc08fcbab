"""The named-workload registry: :func:`get_workload` builds any
workload the experiments, the sweep grids and the CLI name."""

from __future__ import annotations

from repro.energy.params import MachineConfig
from repro.util.validation import ConfigError
from repro.workloads.graph500 import build_graph500_trace
from repro.workloads.mix import build_mix_workload
from repro.workloads.pmf import build_pmf_trace
from repro.workloads.shared import BlockStreamIterator
from repro.workloads.spec import (
    EXTENDED_MODELS,
    SPEC_MODELS,
    build_extended_trace,
    build_spec_trace,
)
from repro.workloads.trace import Workload, duplicate_for_cores, per_core_address_space

__all__ = ["get_workload", "get_workload_stream"]


def get_workload(
    name: str, machine: MachineConfig, refs_per_core: int, seed: int = 1
) -> Workload:
    """Build a named workload for ``machine``.

    SPEC names are duplicated across all cores (multiprogramming, distinct
    address spaces); ``mix`` assigns a different SPEC model per core;
    ``blas``/``pmf`` generate one distinct process trace per core.
    """
    if refs_per_core <= 0:
        raise ConfigError("refs_per_core must be positive")
    if name in SPEC_MODELS:
        trace = build_spec_trace(name, machine, refs_per_core, seed)
        return duplicate_for_cores(trace, machine.cores, seed=seed)
    if name in EXTENDED_MODELS:
        trace = build_extended_trace(name, machine, refs_per_core, seed)
        return duplicate_for_cores(trace, machine.cores, seed=seed)
    if name == "mix":
        return build_mix_workload(machine, refs_per_core, seed)
    if name == "blas":
        traces = tuple(
            per_core_address_space(
                build_graph500_trace(machine, refs_per_core, seed, core), core, seed
            )
            for core in range(machine.cores)
        )
        return Workload(name="blas", traces=traces)
    if name == "pmf":
        traces = tuple(
            per_core_address_space(
                build_pmf_trace(machine, refs_per_core, seed, core), core, seed
            )
            for core in range(machine.cores)
        )
        return Workload(name="pmf", traces=traces)
    raise ConfigError(
        f"unknown workload {name!r}; available: "
        f"{sorted((*SPEC_MODELS, *EXTENDED_MODELS, 'mix', 'blas', 'pmf'))}"
    )


def get_workload_stream(
    name: str,
    machine: MachineConfig,
    refs_per_core: int,
    seed: int = 1,
    chunk_refs: "int | None" = None,
) -> BlockStreamIterator:
    """Build a named workload and hand back its merged block stream.

    The chunked NumPy view of :func:`get_workload` — same recipe, same
    interleaving; see :mod:`repro.workloads.shared` for the protocol.
    """
    workload = get_workload(name, machine, refs_per_core, seed)
    return workload.block_stream(chunk_refs=chunk_refs)
