"""Models of the eight SPEC 2006 benchmarks used in §IV.

Each benchmark is a mixture of the primitives in
:mod:`repro.workloads.synthetic`, with working-set sizes expressed relative
to the target machine's cache capacities (see :class:`Region`) so the same
*personality* holds on both the paper and scaled machines:

* a **hot** component (region well inside L1) — the loop/stack traffic that
  gives SPEC its ~90 % L1 hit rates;
* **stream** components (regions several times the LLC) — sequential
  sweeps whose only hits are spatial; every line they touch goes to main
  memory, the traffic ReDHiP turns into direct memory requests;
* **medium** components (regions between L2 and the per-core LLC share) —
  the reuse that populates mid-level hit rates;
* **irregular** components (random/pointer-chase over multiples of the
  LLC share) — the capacity-busting traffic of mcf/astar-style codes.

The paper selected exactly the SPEC subset that "exercises the deep memory
hierarchy" (high miss traffic), which is why every recipe here leans
memory-bound, and why the per-application CPIs are on the high side —
memory-bound SPEC applications measure CPIs in the 2–5 range on real
hardware.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.energy.params import MachineConfig
from repro.util.validation import ConfigError
from repro.workloads.names import EXTENDED_NAMES, SPEC_NAMES
from repro.workloads.synthetic import Component, Region, assemble_mixture
from repro.workloads.trace import Trace

__all__ = [
    "BenchmarkModel",
    "EXTENDED_MODELS",
    "EXTENDED_NAMES",
    "SPEC_MODELS",
    "SPEC_NAMES",
    "build_extended_trace",
    "build_spec_trace",
]


@dataclass(frozen=True)
class BenchmarkModel:
    """Recipe for one benchmark: component mixture + average CPI."""

    name: str
    components: tuple[Component, ...]
    cpi: float
    description: str = ""


def _hot(weight: float, scale: float = 0.4) -> Component:
    """The L1-resident loop/stack component."""
    return Component(kind="seq", weight=weight, region=Region(scale, "L1"), stride=8)


SPEC_MODELS: dict[str, BenchmarkModel] = {
    "astar": BenchmarkModel(
        name="astar",
        cpi=2.2,
        description="Path-finding: pointer-heavy graph walks over mixed regions.",
        components=(
            _hot(0.78, scale=0.3),
            Component("chase", 0.05, Region(0.5, "L3")),
            Component("chase", 0.03, Region(0.4, "SHARE")),
            Component("random", 0.01, Region(16.0, "LLC")),
            Component("seq", 0.13, Region(2.0, "LLC"), stride=8),
        ),
    ),
    "bwaves": BenchmarkModel(
        name="bwaves",
        cpi=2.6,
        description="Blast-wave CFD: long sequential sweeps over huge arrays.",
        components=(
            _hot(0.74, scale=0.3),
            Component("seq", 0.14, Region(6.0, "LLC"), stride=8, write_frac=0.3),
            Component("random", 0.08, Region(0.45, "SHARE")),
            Component("seq", 0.04, Region(0.7, "L2"), stride=8),
        ),
    ),
    "cactusADM": BenchmarkModel(
        name="cactusADM",
        cpi=2.4,
        description="Numerical relativity stencil: streams plus L3-resident reuse.",
        components=(
            _hot(0.74, scale=0.3),
            Component("seq", 0.08, Region(2.0, "LLC"), stride=8, write_frac=0.3),
            Component("seq", 0.10, Region(0.8, "L3"), stride=8),
            Component("random", 0.08, Region(0.4, "SHARE")),
        ),
    ),
    "GemsFDTD": BenchmarkModel(
        name="GemsFDTD",
        cpi=2.8,
        description="FDTD solver: large stencil streams with moderate reuse.",
        components=(
            _hot(0.72, scale=0.3),
            Component("seq", 0.08, Region(2.0, "LLC"), stride=8, write_frac=0.4),
            Component("seq", 0.08, Region(0.9, "L3"), stride=8),
            Component("random", 0.09, Region(0.45, "SHARE")),
            Component("random", 0.03, Region(16.0, "LLC")),
        ),
    ),
    "lbm": BenchmarkModel(
        name="lbm",
        cpi=2.5,
        description="Lattice-Boltzmann: streaming read-modify-write over the lattice.",
        components=(
            _hot(0.74, scale=0.3),
            Component("seq", 0.12, Region(3.0, "LLC"), stride=8, write_frac=0.5),
            Component("random", 0.14, Region(0.5, "SHARE")),
        ),
    ),
    "mcf": BenchmarkModel(
        name="mcf",
        cpi=4.5,
        description="Network simplex: pointer chasing far beyond any cache.",
        components=(
            _hot(0.72, scale=0.25),
            Component("chase", 0.05, Region(8.0, "LLC")),
            Component("chase", 0.09, Region(0.35, "SHARE")),
            Component("seq", 0.14, Region(0.8, "L2"), stride=8),
        ),
    ),
    "milc": BenchmarkModel(
        name="milc",
        cpi=2.7,
        description="Lattice QCD: random lattice-site touches plus field streams.",
        components=(
            _hot(0.74, scale=0.3),
            Component("random", 0.05, Region(0.5, "SHARE")),
            Component("random", 0.01, Region(16.0, "LLC")),
            Component("seq", 0.08, Region(2.0, "LLC"), stride=8, write_frac=0.3),
            Component("seq", 0.12, Region(0.7, "L2"), stride=8),
        ),
    ),
    "soplex": BenchmarkModel(
        name="soplex",
        cpi=2.3,
        description="Simplex LP: sparse row streams plus basis-matrix reuse.",
        components=(
            _hot(0.76, scale=0.3),
            Component("random", 0.08, Region(0.45, "SHARE")),
            Component("seq", 0.06, Region(0.8, "L3"), stride=8),
            Component("seq", 0.06, Region(2.0, "LLC"), stride=8),
            Component("random", 0.04, Region(16.0, "LLC")),
        ),
    ),
}


def build_spec_trace(
    name: str, machine: MachineConfig, refs: int, seed: int
) -> Trace:
    """Build one core's trace of a SPEC benchmark model."""
    try:
        model = SPEC_MODELS[name]
    except KeyError:
        raise ConfigError(
            f"unknown SPEC model {name!r}; available: {sorted(SPEC_MODELS)}"
        ) from None
    trace = assemble_mixture(
        name=model.name,
        components=model.components,
        refs=refs,
        machine=machine,
        seed=seed,
        cpi=model.cpi,
    )
    return trace


#: Models of benchmarks the paper *excluded* — "omitting benchmarks that
#: have very high L1 cache hit rates or low memory traffic" (§IV).  They
#: exist so the exclusion rationale is testable: on these, prediction
#: lookups cannot pay for themselves and the §IV gate (see
#: ``repro.core.gating``) should disable the mechanism.
EXTENDED_MODELS: dict[str, BenchmarkModel] = {
    "perlbench": BenchmarkModel(
        name="perlbench",
        cpi=1.1,
        description="Interpreter: hot dispatch loop, tiny working set.",
        components=(
            _hot(0.90, scale=0.35),
            Component("seq", 0.06, Region(0.6, "L2"), stride=8),
            Component("random", 0.04, Region(0.5, "L3")),
        ),
    ),
    "h264ref": BenchmarkModel(
        name="h264ref",
        cpi=1.0,
        description="Video encoder: block-local reference windows.",
        components=(
            _hot(0.84, scale=0.4),
            Component("seq", 0.12, Region(0.8, "L2"), stride=8),
            Component("random", 0.04, Region(0.3, "L3")),
        ),
    ),
    "gamess": BenchmarkModel(
        name="gamess",
        cpi=0.9,
        description="Quantum chemistry: compute-bound inner kernels.",
        components=(
            _hot(0.92, scale=0.3),
            Component("seq", 0.08, Region(0.7, "L2"), stride=8),
        ),
    ),
}


def build_extended_trace(
    name: str, machine: MachineConfig, refs: int, seed: int
) -> Trace:
    """Build one core's trace of an excluded (cache-friendly) benchmark."""
    try:
        model = EXTENDED_MODELS[name]
    except KeyError:
        raise ConfigError(
            f"unknown extended model {name!r}; available: {sorted(EXTENDED_MODELS)}"
        ) from None
    return assemble_mixture(
        name=model.name,
        components=model.components,
        refs=refs,
        machine=machine,
        seed=seed,
        cpi=model.cpi,
    )
