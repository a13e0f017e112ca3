"""Energy modelling (the knapsack benefit function of the paper)."""

from .model import (
    CPU_INSTR_NJ,
    MAIN_ACCESS_NJ,
    SPM_ACCESS_NJ,
    EnergyModel,
    cache_access_energy_nj,
)

__all__ = [
    "CPU_INSTR_NJ", "MAIN_ACCESS_NJ", "SPM_ACCESS_NJ",
    "EnergyModel", "cache_access_energy_nj",
]
