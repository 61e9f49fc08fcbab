"""Hardware stride prefetching substrate (§V-C): the classic RPT-based
stride prefetcher and its ReDHiP-filtered probe path."""

from repro._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "repro.prefetch.rpt": ("RPT", "STATE_INITIAL", "STATE_STEADY",
                           "STATE_TRANSIENT"),
    "repro.prefetch.stride": ("PrefetchStats", "StridePrefetcher"),
})
