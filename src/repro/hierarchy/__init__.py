"""Cache-hierarchy substrate: set-associative caches, replacement policies,
the multi-core deep hierarchy with inclusive/exclusive/hybrid policies, and
the event streams the two-phase simulator consumes."""

from repro._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "repro.hierarchy.banking": ("BankSchedule",),
    "repro.hierarchy.events": ("EVENT_EVICT", "EVENT_FILL", "OutcomeRecorder",
                               "OutcomeStream"),
    "repro.hierarchy.hierarchy": ("CacheHierarchy",),
    "repro.hierarchy.inclusion": ("InclusionPolicy",),
    "repro.hierarchy.replacement": ("BaseCache", "CacheStats", "LRUCache",
                                    "PLRUCache", "RandomCache", "make_cache"),
})
