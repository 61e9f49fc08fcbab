"""Queryable results substrate: every sweep cell lands as one row.

See :mod:`repro.results.store` for the append-only SQLite store and
:mod:`repro.sweep` for the orchestrator that fills it.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "repro.results.store": ("CANONICAL_COLUMNS", "STORE_SCHEMA", "CellRow",
                            "ResultsStore"),
})
