"""Cycle-level performance simulator of the full Morphling accelerator.

The simulator composes the stage models - XPU pipeline, VPU, buffers, HBM
channel groups - into steady-state bootstrap throughput and single-shot
latency, mirroring how the paper's cycle-accurate simulator is used in
Section VI:

1. The Private-A1 capacity fixes how many ciphertext *streams* stay
   resident (:func:`repro.core.buffers.acc_stream_capacity`); with
   ``vpe_rows`` ciphertexts per XPU and ``num_xpus`` XPUs that defines
   the scheduler's group (64 for the default build) and the BSK/KSK
   reuse factors.
2. One group costs the *max* of four overlapped busy times: XPU compute,
   BSK streaming over the XPU HBM channels, VPU post-processing, and
   KSK/ciphertext traffic over the VPU channels.  Throughput is
   group size / group time; the slowest resource is the bottleneck.
3. Single-bootstrap latency is the serial walk MS -> BR -> SE -> KS.

Validation: the model reproduces all four Table V rows within a few
percent (see EXPERIMENTS.md); every other experiment reuses it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

from ..params import TFHEParams
from .accelerator import MorphlingConfig
from .buffers import A1_STREAM_OVERHEAD, acc_stream_capacity
from .hbm import HbmModel, TrafficBreakdown
from .reuse import bsk_reuse_factor
from .vpu import VpuModel, VpuStageCycles
from .xpu import IterationBreakdown, XpuModel

if TYPE_CHECKING:
    from ..verify import VerifyReport

__all__ = ["SimulationReport", "MorphlingSimulator", "simulate_bootstrap"]

@dataclass(frozen=True)
class SimulationReport:
    """Everything one simulation run produces."""

    config_name: str
    params_name: str
    bootstrap_latency_s: float
    throughput_bs: float
    bottleneck: str
    group_size: int
    acc_streams: int
    bsk_reuse: int
    ksk_reuse: int
    group_time_s: float
    xpu_busy_s: float
    bsk_transfer_s: float
    vpu_busy_s: float
    ksk_transfer_s: float
    iteration: IterationBreakdown
    vpu_stages: VpuStageCycles
    traffic: TrafficBreakdown
    clock_ghz: float = 1.2

    @property
    def bootstrap_latency_ms(self) -> float:
        return self.bootstrap_latency_s * 1e3

    def summary_lines(self) -> List[str]:
        """The headline numbers ``repro simulate`` and ``repro obs profile`` print."""
        return [
            f"  bootstrap latency : {self.bootstrap_latency_ms:.3f} ms",
            f"  throughput        : {self.throughput_bs:,.0f} bootstraps/s",
            f"  bottleneck        : {self.bottleneck}",
            f"  scheduler group   : {self.group_size} ciphertexts "
            f"({self.acc_streams} resident streams)",
            f"  BSK/KSK reuse     : {self.bsk_reuse}x / {self.ksk_reuse}x",
        ]

    def resource_times(self) -> dict:
        """Busy seconds of the four overlapped group resources."""
        return {
            "xpu_compute": self.xpu_busy_s,
            "bsk_bandwidth": self.bsk_transfer_s,
            "vpu_compute": self.vpu_busy_s,
            "ksk_bandwidth": self.ksk_transfer_s,
        }

    def latency_fractions(self) -> dict:
        """Aggregate time share per component over one group (Fig. 7-a).

        XPU vs the three VPU stages; shares are of busy time, matching
        the paper's component breakdown.  VPU stage cycles convert to
        seconds at the simulated clock so the shares stay correct for
        any ``clock_ghz`` (``xpu_busy_s`` is already real seconds).
        """
        clock_hz = self.clock_ghz * 1e9
        vpu = self.vpu_stages
        ms = self.group_size * vpu.modulus_switch / clock_hz
        se = self.group_size * vpu.sample_extract / clock_hz
        ks = self.group_size * vpu.key_switch / clock_hz
        xpu = self.xpu_busy_s
        total = xpu + ms + se + ks
        return {
            "xpu_blind_rotation": xpu / total,
            "vpu_modulus_switch": ms / total,
            "vpu_sample_extract": se / total,
            "vpu_key_switch": ks / total,
        }


class MorphlingSimulator:
    """Steady-state + latency simulation for one (config, params) pair."""

    def __init__(self, config: MorphlingConfig, params: TFHEParams) -> None:
        self.config = config
        self.params = params
        self.xpu = XpuModel(config, params)
        self.vpu = VpuModel(config, params)
        self.hbm = HbmModel(config)

    # ------------------------------------------------------------------
    def verify(self) -> "VerifyReport":
        """Statically verify the canonical steady-state group program.

        Lowers one full scheduler group (the exact program whose timing
        :meth:`run` models) and runs the :mod:`repro.verify` pass
        pipeline over it, so a (config, params) pair that would compile
        to an ill-formed stream is caught before its throughput numbers
        are trusted.  Returns the :class:`repro.verify.VerifyReport`.
        """
        from ..verify import verify_stream
        from .buffers import acc_stream_capacity
        from .scheduler import LayerDemand, SwScheduler

        scheduler = SwScheduler(self.config, self.params)
        streams = max(1, acc_stream_capacity(self.config, self.params))
        group = streams * self.config.bootstrap_cores
        stream = scheduler.schedule([LayerDemand("steady-state-group", group)])
        return verify_stream(
            stream, config=self.config, params=self.params,
            subject=f"{self.config.name}@{self.params.name}",
        )

    def run(self, verify: bool = False) -> "SimulationReport":
        """Simulate; with ``verify`` the canonical group program must be
        statically clean first (raises ``VerificationError``)."""
        if verify:
            from ..verify import VerificationError

            report = self.verify()
            if not report.ok:
                raise VerificationError(report)
        return self._run()

    # ------------------------------------------------------------------
    def _streams_and_stall(self) -> tuple:
        """Resident streams and the stall factor when not even one fits."""
        cfg, p = self.config, self.params
        streams = acc_stream_capacity(cfg, p)
        if streams >= 1:
            return streams, 1.0
        per_stream = cfg.bootstrap_cores * p.glwe_bytes * A1_STREAM_OVERHEAD
        fraction = cfg.private_a1_bytes / per_stream
        # Less than one stream fits: XPUs time-share the buffer; compute
        # time inflates by the residency shortfall.
        return 1, 1.0 / max(fraction, 1e-6)

    def _run(self) -> SimulationReport:
        cfg, p = self.config, self.params
        clock_hz = cfg.clock_ghz * 1e9

        streams, stall = self._streams_and_stall()
        group_size = streams * cfg.bootstrap_cores
        bsk_reuse = bsk_reuse_factor(cfg.vpe_rows, cfg.num_xpus, streams)
        ksk_reuse = group_size

        iteration = self.xpu.iteration_breakdown()
        br_seconds = self.xpu.blind_rotation_seconds()
        xpu_busy = streams * br_seconds * stall

        traffic = self.hbm.per_bootstrap_traffic(p, bsk_reuse, ksk_reuse)
        bsk_transfer = self.hbm.xpu_transfer_seconds(traffic.xpu_bytes * group_size)
        ksk_transfer = self.hbm.vpu_transfer_seconds(traffic.vpu_bytes * group_size)

        vpu_stages = self.vpu.stage_cycles()
        vpu_busy = group_size * vpu_stages.total / clock_hz

        times = {
            "xpu_compute": xpu_busy,
            "bsk_bandwidth": bsk_transfer,
            "vpu_compute": vpu_busy,
            "ksk_bandwidth": ksk_transfer,
        }
        bottleneck = max(times, key=times.get)
        group_time = times[bottleneck]
        throughput = group_size / group_time

        # Bandwidth before reuse: the float order the pinned latencies hold.
        ksk_tail = p.ksk_bytes / (cfg.vpu_bandwidth_gbs * 1e9) / ksk_reuse
        latency = (
            br_seconds * stall
            + (vpu_stages.modulus_switch + vpu_stages.sample_extract + vpu_stages.key_switch)
            / clock_hz
            + ksk_tail
        )
        return SimulationReport(
            config_name=cfg.name,
            params_name=p.name,
            bootstrap_latency_s=latency,
            throughput_bs=throughput,
            bottleneck=bottleneck,
            group_size=group_size,
            acc_streams=streams,
            bsk_reuse=bsk_reuse,
            ksk_reuse=ksk_reuse,
            group_time_s=group_time,
            xpu_busy_s=xpu_busy,
            bsk_transfer_s=bsk_transfer,
            vpu_busy_s=vpu_busy,
            ksk_transfer_s=ksk_transfer,
            iteration=iteration,
            vpu_stages=vpu_stages,
            traffic=traffic,
            clock_ghz=cfg.clock_ghz,
        )


def simulate_bootstrap(
    config: MorphlingConfig, params: TFHEParams, verify: bool = False
) -> SimulationReport:
    """Convenience wrapper: simulate one (config, params) pair."""
    return MorphlingSimulator(config, params).run(verify=verify)
