"""Memory-footprint accounting for the bootstrap working set (Figure 1-b).

The bootstrap's memory demand is dominated by the two evaluation keys:
the BSK during blind rotation (the paper reports 101.4 MB for the Fig. 1
set - their count stores the transform image in expanded double-complex
form; our packed 32+32-bit layout gives 70.9 MB, see EXPERIMENTS.md) and
the KSK during key switching (paper: 33.8 MB; ours: 35.5 MB).
"""

from __future__ import annotations

from dataclasses import dataclass

from .params import TFHEParams

__all__ = ["MemoryBreakdown", "bootstrap_memory"]


@dataclass(frozen=True)
class MemoryBreakdown:
    """Bytes required by each bootstrap stage's working set."""

    bsk_bytes: int
    ksk_bytes: int
    acc_bytes: int
    test_poly_bytes: int
    lwe_bytes: int

    @property
    def blind_rotation_bytes(self) -> int:
        return self.bsk_bytes + self.acc_bytes + self.test_poly_bytes

    @property
    def key_switch_bytes(self) -> int:
        return self.ksk_bytes

    @property
    def total_bytes(self) -> int:
        return (
            self.bsk_bytes + self.ksk_bytes + self.acc_bytes
            + self.test_poly_bytes + self.lwe_bytes
        )

    def megabytes(self) -> dict:
        mb = 1024 * 1024
        return {
            "bsk": self.bsk_bytes / mb,
            "ksk": self.ksk_bytes / mb,
            "acc": self.acc_bytes / mb,
            "test_poly": self.test_poly_bytes / mb,
            "lwe": self.lwe_bytes / mb,
        }


def bootstrap_memory(params: TFHEParams) -> MemoryBreakdown:
    """Working-set bytes of one bootstrap under ``params``."""
    return MemoryBreakdown(
        bsk_bytes=params.bsk_transform_bytes,
        ksk_bytes=params.ksk_bytes,
        acc_bytes=params.glwe_bytes,
        test_poly_bytes=params.glwe_bytes,
        lwe_bytes=2 * params.lwe_bytes,
    )
