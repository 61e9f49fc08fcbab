"""Energy and timing substrate: Table I parameters, a CACTI-like analytical
model, the dynamic-energy ledger and the CPI-based timing model."""

from repro._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "repro.energy.accounting": ("CostTable", "EnergyLedger", "StaticEnergyModel"),
    "repro.energy.cacti": ("CactiModel", "ModelEstimate"),
    "repro.energy.dram": ("DramConfig", "DramModel", "DramStats"),
    "repro.energy.params": ("BLOCK_BITS", "BLOCK_SIZE", "MACHINES",
                            "CacheLevelParams", "MachineConfig",
                            "PredictionTableParams", "deep_machine",
                            "get_machine", "paper_machine", "scaled_machine",
                            "tiny_machine"),
    "repro.energy.timing": ("TimingModel", "TimingResult"),
})
