"""Workload names, free of NumPy.

The argparse ``choices`` and the sweep-spec validation need only the
names, not the generators behind them; keeping the names here lets the
read-side CLI verbs stay import-light.  :mod:`repro.workloads.spec`
keys its model tables by these tuples.
"""

__all__ = ["EXTENDED_NAMES", "PAPER_WORKLOADS", "SPEC_NAMES"]

#: The eight SPEC CPU2006 benchmark models, in model-table order.
SPEC_NAMES = ("astar", "bwaves", "cactusADM", "GemsFDTD", "lbm", "mcf",
              "milc", "soplex")

#: Benchmarks the paper excluded for their high L1 hit rates (§IV).
EXTENDED_NAMES = ("perlbench", "h264ref", "gamess")

#: The eleven workloads of §V's figures, in the paper's bar order
#: (the twelfth bar, "average", is computed by the experiment layer).
PAPER_WORKLOADS = (
    "bwaves",
    "GemsFDTD",
    "lbm",
    "mcf",
    "milc",
    "soplex",
    "astar",
    "cactusADM",
    "mix",
    "pmf",
    "blas",
)
