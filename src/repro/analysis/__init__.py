"""Workload analysis: operation counts, memory footprints, compute intensity.

These modules regenerate the paper's Figure 1 motivation study from first
principles (with the counting conventions documented per module).
"""

from .failprob import (
    FAILPROB_SCHEMA_VERSION,
    FailurePointEstimate,
    WorkloadFailureReport,
    estimate_failure_probability,
    gaussian_tail_log2,
)
from .intensity import StageIntensity, bootstrap_intensity
from .memory import MemoryBreakdown, bootstrap_memory
from .profile import (
    PROFILE_SCHEMA_VERSION,
    BootstrapProfile,
    WhatIf,
    collect_profile,
    what_if_catalog,
)
from .roofline import RooflinePoint, attainable_rate, machine_balance, workload_points
from .security import SecurityEstimate, classify_parameter_set, estimate_security
from .opcount import OperationBreakdown, count_bootstrap_operations, transform_real_mults

__all__ = [
    "StageIntensity",
    "bootstrap_intensity",
    "MemoryBreakdown",
    "SecurityEstimate",
    "RooflinePoint",
    "machine_balance",
    "workload_points",
    "attainable_rate",
    "classify_parameter_set",
    "estimate_security",
    "bootstrap_memory",
    "OperationBreakdown",
    "count_bootstrap_operations",
    "transform_real_mults",
    "PROFILE_SCHEMA_VERSION",
    "BootstrapProfile",
    "WhatIf",
    "collect_profile",
    "what_if_catalog",
    "FAILPROB_SCHEMA_VERSION",
    "FailurePointEstimate",
    "WorkloadFailureReport",
    "estimate_failure_probability",
    "gaussian_tail_log2",
]
