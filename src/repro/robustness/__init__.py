"""Robustness metrics and baseline strategies (NAT, SEER)."""

from .metrics import (
    StrategyProfile,
    aso,
    bouquet_aso,
    bouquet_mso,
    enhancement_histogram,
    harm_fraction,
    max_harm,
    mso,
    optimized_field,
    robustness_enhancement,
    subopt_worst_field,
)
from .nat import NativeOptimizerStrategy
from .reopt import ReoptRunResult, ReoptStep, ReoptStrategy
from .seer import SeerStrategy

__all__ = [
    "StrategyProfile",
    "aso",
    "bouquet_aso",
    "bouquet_mso",
    "enhancement_histogram",
    "harm_fraction",
    "max_harm",
    "mso",
    "optimized_field",
    "robustness_enhancement",
    "subopt_worst_field",
    "NativeOptimizerStrategy",
    "ReoptRunResult",
    "ReoptStep",
    "ReoptStrategy",
    "SeerStrategy",
]
