"""Baselines: calibrated CPU model, published reference rows, and
prior-accelerator-style simulator configurations."""

from .accelerators import equal_resource_variants
from .cpu import CpuBootstrapTime, CpuCostModel
from .reference import (
    TABLE_V_MORPHLING_PAPER,
    TABLE_V_REFERENCES,
    ReferencePoint,
    references_for,
    speedup_range,
)

__all__ = [
    "CpuCostModel",
    "CpuBootstrapTime",
    "ReferencePoint",
    "TABLE_V_REFERENCES",
    "TABLE_V_MORPHLING_PAPER",
    "references_for",
    "speedup_range",
    "equal_resource_variants",
]
