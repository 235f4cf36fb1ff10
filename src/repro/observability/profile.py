"""``repro obs profile``: bottleneck attribution from the stage models.

``collect_profile`` runs one steady-state bootstrap group and condenses
what the XPU / VPU / HBM / NoC / buffer models say about it into one
report beside the :class:`SimulationReport` it profiled (whose headline
numbers ``repro simulate`` prints):

- **utilization** per overlapped group resource (XPU compute, BSK
  bandwidth, VPU compute, KSK bandwidth) - busy seconds over the group
  time, so the bottleneck row reads 1.0;
- **stage cycles and occupancy** inside the XPU pipeline and the VPU,
  the paper's Fig. 7-a component view, summed over the group;
- **per-HBM-channel traffic**, NoC hops and the buffer high-water marks;
- **roofline position** of the two big stages at the achieved reuse
  factors (:func:`workload_points` against :func:`machine_balance`);
- **what-if estimates**: each candidate upgrade (2x XPU HBM bandwidth,
  2x FFT units, ...) is priced by *actually re-running the simulator*
  with the perturbed configuration - no analytical shortcut that could
  drift from the model - and reported as a speedup over the baseline.

The roofline is Section III's compute-vs-memory split made
quantitative: a machine's *balance point* is its peak compute rate over
its memory bandwidth (ops/byte); work above it is compute-bound, below
it memory-bound.  Raw key switching sits far below the VPU group's
balance point - which is why Morphling gives the VPU 6 of the 8 HBM
channels - and the scheduler's 64x BSK / 64x KSK reuse drags both
stages across their balance points (Section IV-C).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Tuple

from ..core.accelerator import MorphlingConfig
from ..core.buffers import buffer_budget
from ..core.noc import NocModel
from ..core.simulator import SimulationReport, simulate_bootstrap
from ..experiments.fig1 import count_bootstrap_operations
from ..params import TFHEParams

__all__ = [
    "RooflinePoint",
    "machine_balance",
    "workload_points",
    "attainable_rate",
    "WhatIf",
    "BootstrapProfile",
    "what_if_catalog",
    "collect_profile",
]


# ----------------------------------------------------------------------
# Roofline
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RooflinePoint:
    """One workload on the roofline: intensity and its binding resource."""

    name: str
    ops_per_byte: float
    compute_bound: bool


def _xpu_peak_ops(config: MorphlingConfig) -> float:
    """Peak real multiply rate of all VPE arrays (ops/s).

    Each VPE does one complex MAC per lane element per cycle: 8 lanes x
    4 real multiplies.
    """
    vpes = config.num_xpus * config.vpe_rows * config.vpe_cols
    return vpes * config.fft_lanes * 4 * config.clock_ghz * 1e9


def _vpu_peak_ops(config: MorphlingConfig) -> float:
    return config.vpu_macs_per_cycle * config.clock_ghz * 1e9


def machine_balance(config: MorphlingConfig) -> Dict[str, float]:
    """Balance points (ops/byte) of the XPU and VPU resource pairs."""
    return {
        "xpu": _xpu_peak_ops(config) / (config.xpu_bandwidth_gbs * 1e9),
        "vpu": _vpu_peak_ops(config) / (config.vpu_bandwidth_gbs * 1e9),
    }


def workload_points(
    config: MorphlingConfig, params: TFHEParams, bsk_reuse: int = 1, ksk_reuse: int = 1
) -> List[RooflinePoint]:
    """Roofline positions of the bootstrap's two big stages.

    With the default ``reuse = 1`` the points describe the raw algorithm
    (key switching lands memory-bound); passing the scheduler's factors
    (64/64) shows both stages crossing into the compute-bound regime.
    """
    ops = count_bootstrap_operations(params)
    balance = machine_balance(config)
    br_bytes = params.bsk_transform_bytes / bsk_reuse
    # The VPE array does the pointwise work; transforms run on dedicated
    # FFT pipelines, so the roofline charges the MAC stream.
    br_intensity = ops.pointwise_ops / br_bytes
    ks_bytes = params.ksk_bytes / ksk_reuse
    ks_intensity = ops.key_switch_ops / ks_bytes
    return [
        RooflinePoint("blind_rotation", br_intensity,
                      compute_bound=br_intensity > balance["xpu"]),
        RooflinePoint("key_switch", ks_intensity,
                      compute_bound=ks_intensity > balance["vpu"]),
    ]


def attainable_rate(
    config: MorphlingConfig, intensity_ops_per_byte: float, unit: str = "xpu"
) -> float:
    """Classic roofline: min(peak, bandwidth * intensity), in ops/s."""
    if intensity_ops_per_byte < 0:
        raise ValueError("intensity must be non-negative")
    if unit == "xpu":
        peak, bw = _xpu_peak_ops(config), config.xpu_bandwidth_gbs * 1e9
    elif unit == "vpu":
        peak, bw = _vpu_peak_ops(config), config.vpu_bandwidth_gbs * 1e9
    else:
        raise ValueError(f"unknown unit {unit!r}; expected 'xpu' or 'vpu'")
    return min(peak, bw * intensity_ops_per_byte)


# ----------------------------------------------------------------------
# Profile
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WhatIf:
    """One candidate upgrade, priced by re-running the perturbed simulator."""

    name: str
    description: str
    overrides: Dict[str, Any]
    baseline_throughput_bs: float
    throughput_bs: float
    speedup: float
    bottleneck_before: str
    bottleneck_after: str


@dataclass(frozen=True)
class BootstrapProfile:
    """Bottleneck-attribution report for one run of ``simulation``."""

    simulation: SimulationReport
    utilization: Dict[str, float]
    latency_fractions: Dict[str, float]
    xpu_stage_cycles: Dict[str, float]
    xpu_occupancy: Dict[str, float]
    vpu_stage_cycles: Dict[str, float]
    hbm_channel_bytes: Dict[str, float]
    hbm_channel_utilization: Dict[str, float]
    noc_hops: Dict[str, float]
    buffer_watermarks: Dict[str, float]
    rotator_ops: Dict[str, float]
    roofline_balance: Dict[str, float]
    roofline_points: List[RooflinePoint]
    what_ifs: List[WhatIf] = field(default_factory=list)

    def render_text(self) -> str:
        """Human-readable report (the default ``repro obs profile`` output)."""
        sim = self.simulation
        lines = [
            f"profile: {sim.config_name} @ set {sim.params_name} "
            f"({sim.clock_ghz:g} GHz)",
            *sim.summary_lines(),
            "  resource utilization (of group time):",
        ]
        for name, util in self.utilization.items():
            marker = "  <- bottleneck" if name == sim.bottleneck else ""
            lines.append(f"    {name:16s} {util:7.1%}{marker}")
        lines.append("  XPU pipeline occupancy (of the iteration interval):")
        for stage, occ in self.xpu_occupancy.items():
            lines.append(f"    {stage:16s} {occ:7.1%}")
        lines.append("  roofline:")
        for point in self.roofline_points:
            regime = "compute-bound" if point.compute_bound else "memory-bound"
            lines.append(
                f"    {point.name:16s} {point.ops_per_byte:10.1f} ops/B  ({regime})"
            )
        if self.what_ifs:
            lines.append("  what-if (simulator re-run with the perturbed config):")
            for wi in self.what_ifs:
                shift = (
                    ""
                    if wi.bottleneck_after == wi.bottleneck_before
                    else f", bottleneck -> {wi.bottleneck_after}"
                )
                lines.append(
                    f"    {wi.name:16s} {wi.speedup:5.2f}x  "
                    f"({wi.description}{shift})"
                )
        return "\n".join(lines)


def what_if_catalog(config: MorphlingConfig) -> List[Tuple[str, str, Dict[str, Any]]]:
    """Candidate upgrades as ``(name, description, config overrides)``.

    Channel-count doublings keep the *other* group's bandwidth constant
    by doubling the stack bandwidth and channel count together with the
    target group's share (integral for any starting split), so each
    what-if isolates exactly one resource.
    """
    hbm_2x = {"hbm_bandwidth_gbs": config.hbm_bandwidth_gbs * 2,
              "hbm_channels": config.hbm_channels * 2}
    return [
        ("xpu_hbm_2x", "2x XPU HBM bandwidth, VPU bandwidth unchanged",
         {**hbm_2x, "xpu_hbm_channels": config.xpu_hbm_channels * 2}),
        ("vpu_hbm_2x", "2x VPU HBM bandwidth, XPU bandwidth unchanged",
         {**hbm_2x, "vpu_hbm_channels": config.vpu_hbm_channels * 2}),
        ("fft_units_2x", "2x FFT and IFFT units per XPU",
         {"fft_units_per_xpu": config.fft_units_per_xpu * 2,
          "ifft_units_per_xpu": config.ifft_units_per_xpu * 2}),
        ("vpu_macs_2x", "2x VPU MAC throughput",
         {"vpu_lanes_per_group": config.vpu_lanes_per_group * 2}),
        ("clock_1p5x", "1.5x core clock, memory system unchanged",
         {"clock_ghz": config.clock_ghz * 1.5}),
        ("a1_2x", "2x Private-A1 capacity and stream cap",
         {"private_a1_bytes": config.private_a1_bytes * 2,
          "max_acc_streams": config.max_acc_streams * 2}),
    ]


def _evaluate_what_ifs(
    config: MorphlingConfig,
    params: TFHEParams,
    baseline: SimulationReport,
) -> List[WhatIf]:
    results: List[WhatIf] = []
    for name, description, overrides in what_if_catalog(config):
        perturbed = simulate_bootstrap(config.with_overrides(**overrides), params)
        results.append(
            WhatIf(
                name=name,
                description=description,
                overrides=dict(overrides),
                baseline_throughput_bs=baseline.throughput_bs,
                throughput_bs=perturbed.throughput_bs,
                speedup=perturbed.throughput_bs / baseline.throughput_bs,
                bottleneck_before=baseline.bottleneck,
                bottleneck_after=perturbed.bottleneck,
            )
        )
    return results


def collect_profile(
    config: MorphlingConfig,
    params: TFHEParams,
    what_ifs: bool = True,
) -> BootstrapProfile:
    """Profile one steady-state group of ``config`` running ``params``.

    Every XPU runs ``acc_streams`` blind rotations of ``n`` iterations
    and the VPU post-processes the whole group; each traffic group
    interleaves evenly over its HBM channels.  With ``what_ifs`` the
    catalog is priced by re-running the simulator.
    """
    report = simulate_bootstrap(config, params)
    iteration, n = report.iteration, params.n
    rotations = report.acc_streams * config.num_xpus
    xpu_stages = {**iteration.stage_cycle_map(), "overhead": iteration.overhead}
    group_bytes = {"xpu": report.traffic.xpu_bytes * report.group_size,
                   "vpu": report.traffic.vpu_bytes * report.group_size}
    busy = {"xpu": report.bsk_transfer_s / report.group_time_s,
            "vpu": report.ksk_transfer_s / report.group_time_s}
    widths = {"xpu": config.xpu_hbm_channels, "vpu": config.vpu_hbm_channels}
    channels = list(enumerate(["xpu"] * widths["xpu"] + ["vpu"] * widths["vpu"]))
    hops = NocModel(config).hops_per_group(params, report.group_size, report.acc_streams)
    budget = buffer_budget(config, params, report.acc_streams)
    return BootstrapProfile(
        simulation=report,
        utilization={k: v / report.group_time_s for k, v in report.resource_times().items()},
        latency_fractions=report.latency_fractions(),
        xpu_stage_cycles={stage: float(rotations * n * cycles)
                          for stage, cycles in sorted(xpu_stages.items())},
        xpu_occupancy=iteration.occupancy(),
        vpu_stage_cycles={stage: float(report.group_size * cycles) for stage, cycles
                          in sorted(report.vpu_stages.stage_cycle_map().items())},
        hbm_channel_bytes={f"hbm/channel/{ch}": group_bytes[g] / widths[g]
                           for ch, g in channels},
        hbm_channel_utilization={f"hbm/channel/{ch}": busy[g] for ch, g in channels},
        noc_hops={link: float(count) for link, count in sorted(hops.items())},
        buffer_watermarks={name: float(used) for name, used in asdict(budget).items()},
        rotator_ops={"rotator/rotations":
                     float(rotations * n * config.vpe_rows * (params.k + 1))},
        roofline_balance=machine_balance(config),
        roofline_points=workload_points(
            config, params, bsk_reuse=report.bsk_reuse, ksk_reuse=report.ksk_reuse),
        what_ifs=_evaluate_what_ifs(config, params, report) if what_ifs else [],
    )
