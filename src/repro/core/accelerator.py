"""Morphling accelerator configuration (Section IV-A / VI-B).

``MorphlingConfig`` captures every architecture knob the paper sweeps:
unit counts, VPE array geometry, buffer sizes, reuse type, merge-split,
rotator style, clock, and the HBM budget.  Named constructors give the
default Morphling build plus the equal-resource No-Reuse / Input-Reuse
variants used by the Figure 7-b ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .reuse import ReuseType

__all__ = ["MorphlingConfig", "MORPHLING_DEFAULT"]

KIB = 1024
MIB = 1024 * 1024


@dataclass(frozen=True)
class MorphlingConfig:
    """Architecture parameters of one Morphling instance.

    Defaults reproduce the paper's shipped configuration: four XPUs, each
    a 4x4 VPE array fed by 2 merge-split FFT units and drained by 4 IFFT
    units; a VPU of 4 lane groups x 32 lanes (8-wide datapaths); 4 MB
    Private-A1, 4 MB Private-A2, 2 MB Private-B, 1 MB Shared; one HBM2e
    stack at a moderated average 310 GB/s split 2 channels to the XPUs
    and 6 to the VPU.
    """

    name: str = "morphling"
    clock_ghz: float = 1.2
    num_xpus: int = 4
    vpe_rows: int = 4
    vpe_cols: int = 4
    fft_units_per_xpu: int = 2
    ifft_units_per_xpu: int = 4
    decomp_units_per_xpu: int = 4
    fft_lanes: int = 8
    merge_split: bool = True
    reuse: ReuseType = ReuseType.INPUT_OUTPUT_REUSE
    rotator: str = "double_pointer"  # or "shifter"
    vpu_lane_groups: int = 4
    vpu_lanes_per_group: int = 32
    vpu_simd_width: int = 16
    private_a1_bytes: int = 4 * MIB
    private_a2_bytes: int = 4 * MIB
    private_b_bytes: int = 2 * MIB
    shared_bytes: int = 1 * MIB
    hbm_channels: int = 8
    hbm_bandwidth_gbs: float = 310.0
    xpu_hbm_channels: int = 2
    vpu_hbm_channels: int = 6
    max_acc_streams: int = 4
    noc_bandwidth_tbs: float = 4.8

    def __post_init__(self) -> None:
        if self.num_xpus < 1:
            raise ValueError("need at least one XPU")
        if self.vpe_rows < 1 or self.vpe_cols < 1:
            raise ValueError("VPE array must be at least 1x1")
        if self.fft_units_per_xpu < 1 or self.ifft_units_per_xpu < 1:
            raise ValueError("need at least one FFT and one IFFT unit per XPU")
        if self.vpu_lane_groups < 1 or self.vpu_lanes_per_group < 1:
            raise ValueError("VPU needs at least one lane group of at least one lane")
        if self.rotator not in ("double_pointer", "shifter"):
            raise ValueError(f"unknown rotator style: {self.rotator!r}")
        if self.xpu_hbm_channels + self.vpu_hbm_channels > self.hbm_channels:
            raise ValueError("channel split exceeds the HBM stack")
        if self.clock_ghz <= 0 or self.hbm_bandwidth_gbs <= 0:
            raise ValueError("clock and bandwidth must be positive")

    # ------------------------------------------------------------------
    @property
    def bootstrap_cores(self) -> int:
        """Concurrent bootstraps in flight: one per VPE row per XPU."""
        return self.num_xpus * self.vpe_rows

    @property
    def vpu_lanes(self) -> int:
        return self.vpu_lane_groups * self.vpu_lanes_per_group

    @property
    def vpu_macs_per_cycle(self) -> int:
        """VPU MAC throughput: every lane is a 512-bit (16x32-bit) datapath."""
        return self.vpu_lanes * self.vpu_simd_width

    @property
    def total_ifft_units(self) -> int:
        return self.num_xpus * self.ifft_units_per_xpu

    @property
    def total_fft_units(self) -> int:
        return self.num_xpus * self.fft_units_per_xpu

    @property
    def total_transform_units(self) -> int:
        """The paper's "I/FFT" count (24 for the default build)."""
        return self.total_fft_units + self.total_ifft_units

    @property
    def xpu_bandwidth_gbs(self) -> float:
        """HBM bandwidth available to BSK streaming."""
        return self.hbm_bandwidth_gbs * self.xpu_hbm_channels / self.hbm_channels

    @property
    def vpu_bandwidth_gbs(self) -> float:
        """HBM bandwidth available to KSK / ciphertext traffic."""
        return self.hbm_bandwidth_gbs * self.vpu_hbm_channels / self.hbm_channels

    def with_overrides(self, **kwargs) -> "MorphlingConfig":
        """Copy with fields replaced (sweeps and ablations)."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # Named configurations
    # ------------------------------------------------------------------
    @classmethod
    def morphling(cls, **overrides) -> "MorphlingConfig":
        """The paper's shipped configuration."""
        return cls(**overrides)

    @classmethod
    def no_reuse(cls, **overrides) -> "MorphlingConfig":
        """Equal-resource No-Reuse variant (MATCHA-style, Fig. 7-b baseline)."""
        return cls(name="no-reuse", reuse=ReuseType.NO_REUSE,
                   merge_split=False, **overrides)

    @classmethod
    def input_reuse(cls, **overrides) -> "MorphlingConfig":
        """Equal-resource Input-Reuse variant (Strix-style)."""
        return cls(name="input-reuse", reuse=ReuseType.INPUT_REUSE,
                   merge_split=False, **overrides)


MORPHLING_DEFAULT = MorphlingConfig()
