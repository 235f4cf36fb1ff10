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
per-workload probability is the union bound over all points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from ..observability.noise import NoiseTracker
from ..tfhe.noise import LOG2_PROB_FLOOR, gaussian_tail_log2

__all__ = [
    "FAILPROB_SCHEMA_VERSION",
    "FailurePointEstimate",
    "WorkloadFailureReport",
    "estimate_failure_probability",
]

FAILPROB_SCHEMA_VERSION = 1


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

    def to_jsonable(self) -> dict:
        return {
            "op_id": self.op_id,
            "kind": self.kind,
            "label": self.label,
            "margin": self.margin,
            "std_log2": self.std_log2,
            "sigmas": self.sigmas,
            "log2_prob": self.log2_prob,
        }


@dataclass(frozen=True)
class WorkloadFailureReport:
    """Union-bound decryption-failure probability of one tracked run."""

    schema_version: int
    points: tuple
    total_log2_prob: float

    @property
    def worst(self) -> Optional[FailurePointEstimate]:
        if not self.points:
            return None
        return max(self.points, key=lambda p: p.log2_prob)

    def meets(self, log2_budget: float) -> bool:
        """True when the workload failure probability <= 2**log2_budget."""
        return self.total_log2_prob <= log2_budget

    def to_jsonable(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "total_log2_prob": self.total_log2_prob,
            "num_points": len(self.points),
            "worst": self.worst.to_jsonable() if self.worst else None,
            "points": [p.to_jsonable() for p in self.points],
        }

    def render_text(self) -> str:
        lines = [
            f"decryption-failure probability (union bound over "
            f"{len(self.points)} decision points):",
            f"  log2(p_fail) <= {self.total_log2_prob:.1f}"
            + ("  (numerically zero)" if self.total_log2_prob <= LOG2_PROB_FLOOR
               else ""),
        ]
        worst = self.worst
        if worst is not None:
            label = f" [{worst.label}]" if worst.label else ""
            lines.append(
                f"  worst point: {worst.kind}{label} margin={worst.margin:.4g} "
                f"std=2^{worst.std_log2:.1f} ({worst.sigmas:.1f} sigma, "
                f"log2 p = {worst.log2_prob:.1f})"
            )
        return "\n".join(lines)


def estimate_failure_probability(tracker: NoiseTracker) -> WorkloadFailureReport:
    """Estimate the tracked workload's decryption-failure probability.

    Every failure point the tracker recorded becomes one Gaussian-tail
    term; the total is the union bound (sum of probabilities, computed as
    a log-sum-exp in log2 space so deep tails don't vanish).
    """
    estimates: List[FailurePointEstimate] = []
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
    if estimates:
        lmax = max(e.log2_prob for e in estimates)
        if lmax <= LOG2_PROB_FLOOR:
            total = LOG2_PROB_FLOOR
        else:
            total = lmax + math.log2(
                sum(2.0 ** (e.log2_prob - lmax) for e in estimates)
            )
            total = min(total, 0.0)  # probabilities cap at one
    else:
        total = LOG2_PROB_FLOOR
    return WorkloadFailureReport(
        schema_version=FAILPROB_SCHEMA_VERSION,
        points=tuple(estimates),
        total_log2_prob=total,
    )
