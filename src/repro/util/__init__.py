"""Small shared utilities: bit manipulation, statistics, deterministic RNG.

These helpers are deliberately dependency-light; every other subpackage may
import :mod:`repro.util` but :mod:`repro.util` imports nothing from the rest
of the package (beyond the lazy-export helper).
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "repro.util.bitops": ("bit_slice", "ilog2", "is_pow2", "mask", "one_hot64",
                          "popcount64_array"),
    "repro.util.proptest": ("cases", "random_blocks", "random_pow2"),
    "repro.util.rng": ("make_rng", "seed_from_string"),
    "repro.util.stats": ("geometric_mean", "normalize_to", "percent",
                         "ratio_series", "summarize"),
    "repro.util.validation": ("ReproError", "check_in", "check_positive",
                              "check_pow2", "check_range"),
})
