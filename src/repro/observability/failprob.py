"""Decryption-failure probability from tracked noise at decision points.

TFHE computations fail *silently*: whenever a noisy phase crosses a
rounding boundary - the modswitch bucket choice inside a bootstrap, the
sign of a gate decode, the nearest-multiple grid of a message decode -
the wrong plaintext comes out with no error raised.  The paper's
throughput claims (like MATCHA's) hold *at a bounded failure rate*, so a
workload report is incomplete without one.

The noise tracker (:mod:`repro.observability.noise`) records every such
decision as a :class:`~repro.observability.noise.FailurePoint` carrying
the decision margin (distance from the noise-free value to the nearest
boundary, torus units) and the predicted variance of the value being
rounded.  Under the CGGI Gaussian noise model the per-point failure
probability is the two-sided tail

``p = erfc(z / sqrt(2))``  with  ``z = margin / std``

(:func:`repro.tfhe.noise.gaussian_tail_log2`, in log2 space) and the
per-workload probability is the union bound over all points - the
runtime twin of VER008's static report, sharing its
:class:`~repro.tfhe.noise.FailureBound` type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..tfhe.noise import LOG2_PROB_FLOOR, FailureBound, gaussian_tail_log2, union_bound_log2
from .export import to_jsonable
from .noise import NoiseTracker

__all__ = [
    "FailurePointEstimate",
    "WorkloadFailureReport",
    "estimate_failure_probability",
]


@dataclass(frozen=True)
class FailurePointEstimate:
    """One decision point with its estimated failure probability."""

    op_id: int
    kind: str
    label: str
    margin: float
    std_log2: float
    sigmas: float
    log2_prob: float


@dataclass(frozen=True)
class WorkloadFailureReport(FailureBound):
    """Union-bound decryption-failure probability of one tracked run."""

    points: Tuple[FailurePointEstimate, ...] = ()

    @property
    def worst(self) -> Optional[FailurePointEstimate]:
        return max(self.points, key=lambda p: p.log2_prob, default=None)

    def to_jsonable(self) -> dict:
        return {
            **super().to_jsonable(),
            "num_points": len(self.points),
            "worst": to_jsonable(self.worst),
            "points": to_jsonable(self.points),
        }

    def _lines(self) -> List[str]:
        lines = [f"decryption-failure probability (union bound over "
                 f"{len(self.points)} decision points):"]
        worst = self.worst
        if worst is not None:
            label = f" [{worst.label}]" if worst.label else ""
            lines.append(
                f"  worst point: {worst.kind}{label} margin={worst.margin:.4g} "
                f"std=2^{worst.std_log2:.1f} ({worst.sigmas:.1f} sigma, "
                f"log2 p = {worst.log2_prob:.1f})"
            )
        return lines


def estimate_failure_probability(tracker: NoiseTracker) -> WorkloadFailureReport:
    """Estimate the tracked workload's decryption-failure probability.

    Every failure point the tracker recorded becomes one Gaussian-tail
    term; the total is their :func:`~repro.tfhe.noise.union_bound_log2`.
    """
    estimates = []
    for point in tracker.failure_points():
        std = math.sqrt(max(point.variance, 0.0))
        estimates.append(FailurePointEstimate(
            op_id=point.op_id,
            kind=point.kind,
            label=point.label,
            margin=point.margin,
            std_log2=math.log2(std) if std > 0.0 else LOG2_PROB_FLOOR,
            sigmas=point.margin / std if std > 0.0 else math.inf,
            log2_prob=gaussian_tail_log2(point.margin, point.variance),
        ))
    return WorkloadFailureReport(
        total_log2_prob=union_bound_log2((e.log2_prob, 1) for e in estimates),
        points=tuple(estimates),
    )
