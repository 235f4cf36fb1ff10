"""VPU timing model (Section V-B).

The programmable vector unit runs everything except blind rotation: MS
(scalar multiply + round over the mask), SE (data regrouping), KS (the
KSK contraction), and P-ALU ops for application-level linear algebra.
Four lane groups of 32 lanes; each lane moves a 512-bit vector (16x32-bit
MACs) per cycle.  One VPU serves all four XPUs because these stages are a
small fraction of the bootstrap (Fig. 7-a).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..params import TFHEParams
from .accelerator import MorphlingConfig

__all__ = ["VpuStageCycles", "VpuModel"]


@dataclass(frozen=True)
class VpuStageCycles:
    """Per-ciphertext cycle costs of the VPU stages of one bootstrap."""

    modulus_switch: float
    sample_extract: float
    key_switch: float

    @property
    def total(self) -> float:
        return self.modulus_switch + self.sample_extract + self.key_switch

    def stage_cycle_map(self) -> dict:
        """Stage name -> cycles, in bootstrap order (the profile's keys)."""
        return {
            "modulus_switch": self.modulus_switch,
            "sample_extract": self.sample_extract,
            "key_switch": self.key_switch,
        }


class VpuModel:
    """Cycle model of the vector processing unit."""

    def __init__(self, config: MorphlingConfig, params: TFHEParams):
        self.config = config
        self.params = params

    def stage_cycles(self) -> VpuStageCycles:
        """Cycles per bootstrapped ciphertext for MS, SE, and KS.

        - MS: one multiply+round per mask element (n+1 ops).
        - SE: regroup ``k*N`` words (register-file moves, one vector/cycle
          per lane group).
        - KS: ``k*N * l_k`` scalar-vector MACs of width ``n+1`` - the
          dominant term and the reason KS is memory/VPU-bound rather than
          XPU work.
        """
        p, cfg = self.params, self.config
        macs = cfg.vpu_macs_per_cycle
        ms = (p.n + 1) / macs
        se = p.k * p.N / macs
        ks = p.k * p.N * p.l_k * (p.n + 1) / macs
        return VpuStageCycles(modulus_switch=ms, sample_extract=se, key_switch=ks)

    def bootstrap_tail_cycles(self, batch: int) -> float:
        """VPU cycles to post-process ``batch`` ciphertexts (SE + KS) plus
        pre-process the next batch (MS)."""
        stages = self.stage_cycles()
        return batch * stages.total

    def linear_op_cycles(self, macs: int) -> float:
        """Cycles for application-level linear algebra (P-ALU path)."""
        if macs < 0:
            raise ValueError("macs must be non-negative")
        return macs / self.config.vpu_macs_per_cycle
