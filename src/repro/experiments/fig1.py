"""Figure 1: operation / memory / CPU-time breakdown of one bootstrap.

Regenerates the three panels of the motivation figure for the 128-bit
set (N=1024, n=481, k=2, l_b=4, l_k=9): multiplication shares per stage,
working-set memory per stage, CPU execution time per stage, and the
compute intensity (ops/byte) that splits the machine into XPUs and a
programmable VPU (Section III).

The paper profiles TFHE bootstrapping (Concrete) and reports that I/FFT
contributes ~88 % of all multiplications, key switching ~1.9 %,
everything else ~1 %.  Counting conventions (documented because Fig.
1's shares depend on them):

- one *operation* is one real multiplication; a complex multiplication
  counts as 4 (the paper counts single multiplications);
- every polynomial multiplication pays a forward and an inverse
  negacyclic transform (the paper's motivation explicitly doubles the
  transform count per polynomial product - no reuse in the baseline);
- a negacyclic transform of size ``N`` is an ``N/2``-point FFT plus the
  twisting pass: ``4 * ((N/4) * log2(N/2) + N/2)`` real multiplications;
- pointwise products in the transform domain are ``N/2`` complex
  multiplications;
- key switching is ``k*N * l_k`` scalar x (n+1)-vector multiplications;
- modulus switching is one multiply per mask element; decomposition and
  sample extraction are shifts/moves (no multiplications), matching the
  paper's "other operations are a small fraction" observation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..baselines import CpuCostModel
from ..memory import bootstrap_memory
from ..params import FIG1_PARAMS, TFHEParams
from .common import ExperimentResult

__all__ = [
    "OperationBreakdown",
    "transform_real_mults",
    "count_bootstrap_operations",
    "StageIntensity",
    "bootstrap_intensity",
    "run_fig1",
]

PAPER_SHARES = {"ifft_fft": 0.88, "key_switch": 0.019, "other": 0.01}
PAPER_CPU_MS = {"blind_rotation": 37.7, "key_switch": 6.4}
PAPER_MEMORY_MB = {"bsk": 101.4, "ksk": 33.8}


def _fft_stage_count(n: int) -> int:
    """Number of butterfly stages in an ``n``-point radix-2 FFT."""
    if n <= 0 or n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    return n.bit_length() - 1


def transform_real_mults(N: int) -> int:
    """Real multiplications of one negacyclic transform (N/2-pt FFT + twist)."""
    points = N // 2
    butterfly_cmults = (points // 2) * _fft_stage_count(points)
    twist_cmults = points
    return 4 * (butterfly_cmults + twist_cmults)


@dataclass(frozen=True)
class OperationBreakdown:
    """Multiplication counts per bootstrap, by stage."""

    fft_ops: int
    pointwise_ops: int
    key_switch_ops: int
    mod_switch_ops: int
    decomposition_ops: int
    sample_extract_ops: int

    @property
    def blind_rotation_ops(self) -> int:
        return self.fft_ops + self.pointwise_ops

    @property
    def other_ops(self) -> int:
        return self.mod_switch_ops + self.decomposition_ops + self.sample_extract_ops

    @property
    def total(self) -> int:
        return self.blind_rotation_ops + self.key_switch_ops + self.other_ops

    def shares(self) -> Dict[str, float]:
        """Fractional shares in the same buckets Fig. 1 plots."""
        t = self.total
        return {
            "ifft_fft": self.fft_ops / t,
            "pointwise": self.pointwise_ops / t,
            "key_switch": self.key_switch_ops / t,
            "other": self.other_ops / t,
        }


def count_bootstrap_operations(params: TFHEParams) -> OperationBreakdown:
    """Count the multiplications of one programmable bootstrap."""
    p = params
    polymults = p.polymults_per_bootstrap  # n * (k+1)^2 * l_b
    transforms = 2 * polymults  # forward + inverse per product
    return OperationBreakdown(
        fft_ops=transforms * transform_real_mults(p.N),
        pointwise_ops=polymults * (p.N // 2) * 4,
        key_switch_ops=p.k * p.N * p.l_k * (p.n + 1),
        mod_switch_ops=p.n + 1,
        decomposition_ops=0,
        sample_extract_ops=0,
    )


@dataclass(frozen=True)
class StageIntensity:
    """Ops/byte per stage; the XPU/VPU split criterion."""

    blind_rotation: float
    key_switch: float
    other: float

    def compute_bound_stage(self) -> str:
        """The stage with the highest arithmetic intensity."""
        stages = {
            "blind_rotation": self.blind_rotation,
            "key_switch": self.key_switch,
            "other": self.other,
        }
        return max(stages, key=lambda stage: stages[stage])


def bootstrap_intensity(params: TFHEParams) -> StageIntensity:
    """Operations per byte for each bootstrap stage."""
    ops = count_bootstrap_operations(params)
    mem = bootstrap_memory(params)
    other_bytes = mem.lwe_bytes + mem.acc_bytes  # MS/SE touch ciphertexts only
    return StageIntensity(
        blind_rotation=ops.blind_rotation_ops / mem.blind_rotation_bytes,
        key_switch=ops.key_switch_ops / mem.key_switch_bytes,
        other=ops.other_ops / max(other_bytes, 1),
    )


def run_fig1(params: TFHEParams = FIG1_PARAMS) -> ExperimentResult:
    ops = count_bootstrap_operations(params)
    shares = ops.shares()
    mem = bootstrap_memory(params).megabytes()
    cpu = CpuCostModel().bootstrap_time(params)
    intensity = bootstrap_intensity(params)

    rows = [
        ["operations: I/FFT share", f"{shares['ifft_fft']:.1%}", f"{PAPER_SHARES['ifft_fft']:.0%}"],
        ["operations: pointwise share", f"{shares['pointwise']:.1%}", "~9%"],
        ["operations: key-switch share", f"{shares['key_switch']:.1%}", f"{PAPER_SHARES['key_switch']:.1%}"],
        ["operations: other share", f"{shares['other']:.2%}", "~1%"],
        ["memory: BSK (MB)", f"{mem['bsk']:.1f}", f"{PAPER_MEMORY_MB['bsk']}"],
        ["memory: KSK (MB)", f"{mem['ksk']:.1f}", f"{PAPER_MEMORY_MB['ksk']}"],
        ["CPU time: blind rotation (ms)", f"{cpu.blind_rotation_s * 1e3:.1f}", f"{PAPER_CPU_MS['blind_rotation']}"],
        ["CPU time: key switch (ms)", f"{cpu.key_switch_s * 1e3:.1f}", f"{PAPER_CPU_MS['key_switch']}"],
        ["intensity: BR (ops/byte)", f"{intensity.blind_rotation:.1f}", "compute-bound"],
        ["intensity: KS (ops/byte)", f"{intensity.key_switch:.2f}", "memory-bound"],
    ]
    return ExperimentResult(
        "fig1",
        "Bootstrap breakdown: operations, memory, CPU time",
        ["quantity", "measured", "paper"],
        rows,
        notes=[
            "BSK memory: the paper stores the transform image in expanded "
            "form (101.4 MB); our packed 32+32-bit layout gives 70.9 MB.",
            f"total multiplications per bootstrap: {ops.total:,}",
        ],
    )
