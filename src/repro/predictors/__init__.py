"""Comparison schemes of §V: base, Phased Cache, counting-Bloom-filter
prediction and the Oracle bound — plus the hash-function library they and
ReDHiP share."""

from repro._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "repro.predictors.base": ("PresencePredictor", "SchemeSpec", "base_scheme",
                              "oracle_scheme", "phased_scheme",
                              "waypred_scheme"),
    "repro.predictors.bloom": ("BloomFilter", "CountingBloomFilter"),
    "repro.predictors.cbf_scheme": ("CBFPredictor", "cbf_scheme"),
    "repro.predictors.ehc": ("EHCController", "ehc_scheme"),
    "repro.predictors.hashes": ("bits_hash", "bits_hash_array", "make_hash",
                                "xor_hash", "xor_hash_array"),
    "repro.predictors.levelpred": ("LevelPredController", "levelpred_scheme",
                                   "oracle_levelpred_scheme"),
    "repro.predictors.missmap": ("MissMapPredictor", "missmap_scheme"),
})
