"""Ablation experiment drivers for the design choices DESIGN.md calls out.

Not paper figures, but the quantitative version of the paper's design
arguments: the dataflow choice (Section IV-B), the double-pointer
rotator (Section V-C), the BSK/KSK reuse factors vs HBM pressure
(Section IV-C), and a security audit of the parameter sets.
"""

from __future__ import annotations

from ..security import classify_parameter_set
from ..core.accelerator import MorphlingConfig
from ..core.dataflow import Dataflow, dataflow_cost
from ..core.hbm import HbmModel
from ..core.simulator import simulate_bootstrap
from ..params import PARAM_SETS, get_params
from .common import ExperimentResult

__all__ = [
    "run_ablation_dataflow",
    "run_ablation_rotator",
    "run_ablation_reuse_factors",
    "run_security_table",
]


def run_ablation_dataflow(param_set: str = "I") -> ExperimentResult:
    """Buffer/bandwidth cost of the three VPE-array dataflows."""
    cfg = MorphlingConfig()
    params = get_params(param_set)
    rows = []
    for dataflow in Dataflow:
        cost = dataflow_cost(dataflow, cfg, params)
        rows.append([
            dataflow.value,
            cost.a1_bytes_per_ciphertext // 1024,
            cost.external_bytes_per_iteration // 1024,
        ])
    return ExperimentResult(
        "ablation-dataflow",
        f"VPE-array dataflow costs (set {param_set})",
        ["dataflow", "A1 KB/ciphertext", "external KB/iteration"],
        rows,
        notes=["paper: ACC-output stationary minimizes both axes (Section IV-B)"],
    )


def run_ablation_rotator() -> ExperimentResult:
    """Double-pointer rotation vs variable-delay shifter."""
    rows = []
    for pset in ("I", "II", "III", "IV"):
        p = get_params(pset)
        dp = simulate_bootstrap(MorphlingConfig(rotator="double_pointer"), p)
        sh = simulate_bootstrap(MorphlingConfig(rotator="shifter"), p)
        rows.append([
            pset, int(dp.throughput_bs), int(sh.throughput_bs),
            f"{dp.throughput_bs / sh.throughput_bs:.2f}x",
        ])
    return ExperimentResult(
        "ablation-rotator",
        "Double-pointer rotation vs variable-delay shifter",
        ["set", "double-pointer (BS/s)", "shifter (BS/s)", "advantage"],
        rows,
        notes=["paper: the shifter's variable latency causes pipeline stalls "
               "(Section V-C); the double pointer eliminates them"],
    )


def run_ablation_reuse_factors(param_set: str = "I") -> ExperimentResult:
    """BSK reuse factor vs the bootstrap rate the memory system can feed."""
    cfg = MorphlingConfig()
    params = get_params(param_set)
    hbm = HbmModel(cfg)
    compute = simulate_bootstrap(cfg, params).throughput_bs
    rows = []
    for reuse in (1, 4, 16, 64, 256):
        rate = hbm.sustainable_bootstrap_rate(params, reuse, 64)
        rows.append([
            reuse, int(rate),
            "memory-bound" if rate < compute else "compute-bound",
        ])
    return ExperimentResult(
        "ablation-reuse-factors",
        f"BSK reuse vs sustainable memory rate (set {param_set}, "
        f"compute needs {compute:,.0f} BS/s)",
        ["BSK reuse", "memory rate (BS/s)", "regime"],
        rows,
        notes=["the paper's 64x (4 rows x 4 XPUs x 4 streams) is the first "
               "factor that keeps the default build compute-bound"],
    )


def run_security_table() -> ExperimentResult:
    """First-order security audit of every parameter set."""
    rows = []
    for name in sorted(PARAM_SETS):
        est = classify_parameter_set(PARAM_SETS[name])
        rows.append([
            name,
            PARAM_SETS[name].lam,
            round(est.lwe_bits),
            round(est.glwe_bits),
            round(est.effective_bits),
            "yes" if est.meets_claim else "no (32-bit port)",
        ])
    return ExperimentResult(
        "security-table",
        "First-order security estimates per parameter set",
        ["set", "claimed", "LWE est.", "GLWE est.", "effective", "meets claim"],
        rows,
        notes=[
            "sets III/B/C claim 128-bit via a 64-bit modulus in TFHE-rs; "
            "our q=2^32 functional re-derivation estimates lower, and the "
            "estimator surfaces that documented substitution",
        ],
    )
