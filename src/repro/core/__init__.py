"""ReDHiP — the paper's primary contribution: the bitmap prediction table,
the cheap per-set recalibration machinery, the controller that plugs into
the hierarchy, and the per-level variant for exclusive hierarchies."""

from repro._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "repro.core.exclusive": ("ExclusiveReDHiP", "LevelPredictor"),
    "repro.core.gating": ("GatedPredictor", "gated_redhip_scheme"),
    "repro.core.prediction_table": ("PredictionTable", "pt_geometry"),
    "repro.core.recalibration": ("RecalibrationCost", "RecalibrationEngine",
                                 "TagMirror"),
    "repro.core.redhip": ("PAPER_RECAL_PERIOD", "ReDHiPController",
                          "redhip_scheme"),
})
