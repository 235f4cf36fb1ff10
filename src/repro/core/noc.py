"""Network-on-Chip model (Section V-D).

Morphling's NoC is intentionally simple because the systolic array and
the specialized buffers fix the dataflow: four 4-to-4 crossbars (A1<->XPU,
XPU<->Shared, Shared<->VPU, B<->VPU) and one multicast tree (A2 -> XPUs,
one-directional, BSK + twiddles).  The model enumerates the links, checks
that steady-state flows fit the chip-wide budget (4.8 TB/s in the paper),
and reports per-link utilization for a given parameter set.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..params import TFHEParams
from .accelerator import MorphlingConfig

__all__ = ["NocLink", "NocModel"]


@dataclass(frozen=True)
class NocLink:
    """One NoC connection group."""

    name: str
    topology: str  # "crossbar" or "multicast"
    endpoints: int
    bidirectional: bool


class NocModel:
    """Structural + steady-state bandwidth model of the NoC."""

    def __init__(self, config: MorphlingConfig):
        self.config = config
        x = config.num_xpus
        self.links = [
            NocLink("private_a1_to_xpu", "crossbar", x, bidirectional=True),
            NocLink("private_a2_to_xpu", "multicast", x, bidirectional=False),
            NocLink("xpu_to_shared", "crossbar", x, bidirectional=True),
            NocLink("shared_to_vpu", "crossbar", config.vpu_lane_groups, bidirectional=True),
            NocLink("private_b_to_vpu", "crossbar", config.vpu_lane_groups, bidirectional=True),
        ]

    def link(self, name: str) -> NocLink:
        for link in self.links:
            if link.name == name:
                return link
        raise KeyError(f"unknown NoC link {name!r}")

    # ------------------------------------------------------------------
    def steady_state_flows_gbs(self, params: TFHEParams, iteration_cycles: float) -> dict:
        """Per-link steady-state bandwidth (GB/s) during blind rotation.

        Every iteration each XPU pulls ``(k+1)`` rotated polynomial pairs
        from A1 (2 x 32-bit words per coefficient read), streams one
        transform-domain BSK_i through the multicast tree, and at the end
        of a bootstrap writes ``(k+1)`` result polynomials to Shared.
        """
        if iteration_cycles <= 0:
            raise ValueError("iteration_cycles must be positive")
        cfg = self.config
        cycle_s = 1.0 / (cfg.clock_ghz * 1e9)
        iter_s = iteration_cycles * cycle_s
        per_xpu_rows = cfg.vpe_rows
        a1_bytes = per_xpu_rows * (params.k + 1) * params.N * 4 * 2
        bsk_bytes = params.polynomials_per_ggsw * params.N * params.coeff_bytes
        shared_bytes = per_xpu_rows * params.glwe_bytes / max(params.n, 1)
        flows = {
            "private_a1_to_xpu": cfg.num_xpus * a1_bytes / iter_s / 1e9,
            "private_a2_to_xpu": bsk_bytes / iter_s / 1e9,  # multicast: sent once
            "xpu_to_shared": cfg.num_xpus * shared_bytes / iter_s / 1e9,
        }
        return flows

    def total_utilization(self, params: TFHEParams, iteration_cycles: float) -> float:
        """Fraction of the chip-wide NoC budget in use during blind rotation."""
        flows = self.steady_state_flows_gbs(params, iteration_cycles)
        return sum(flows.values()) / (self.config.noc_bandwidth_tbs * 1000.0)

    # ------------------------------------------------------------------
    def hops_per_group(
        self, params: TFHEParams, group_size: int, streams: int
    ) -> dict:
        """Link traversals ("hops") one steady-state scheduler group causes.

        A hop is one polynomial-sized message crossing one NoC link; a
        multicast delivery counts one hop per reached endpoint.  Per
        blind-rotation iteration every XPU pulls ``vpe_rows * (k+1)``
        rotated pairs from A1 and receives the broadcast BSK_i; per
        finished bootstrap ``(k+1)`` result polynomials cross to Shared
        and on to the VPU, and the KSK tile plus LWE operands cross the
        Private-B link once per group.  These are the NoC hops the
        profiler reports.
        """
        if group_size < 1 or streams < 1:
            raise ValueError("group_size and streams must be >= 1")
        cfg = self.config
        iters = params.n * streams  # iterations to retire the whole group
        per_iter_a1 = cfg.num_xpus * cfg.vpe_rows * (params.k + 1)
        return {
            "private_a1_to_xpu": iters * per_iter_a1,
            "private_a2_to_xpu": iters * params.polynomials_per_ggsw * cfg.num_xpus,
            "xpu_to_shared": group_size * (params.k + 1),
            "shared_to_vpu": group_size * (params.k + 1),
            "private_b_to_vpu": group_size + params.l_k,
        }
