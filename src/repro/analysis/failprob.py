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

and the per-workload probability is the union bound over all points.
Realistic ``z`` values (hundreds of sigmas on the shipped test set) make
``erfc`` underflow to zero in double precision, so everything here works
in log2 space, switching to the asymptotic expansion
``log2 p ~= -z^2/2 * log2(e) - log2(z) + log2(sqrt(2/pi))`` once ``erfc``
can no longer represent the tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from ..observability.noise import NoiseTracker

__all__ = [
    "FAILPROB_SCHEMA_VERSION",
    "LOG2_PROB_FLOOR",
    "DEFAULT_LOG2_BUDGET",
    "gaussian_tail_log2",
    "FailurePointEstimate",
    "WorkloadFailureReport",
    "estimate_failure_probability",
    "AppFailureReport",
    "estimate_app_failure",
]

FAILPROB_SCHEMA_VERSION = 1

#: Default workload failure budget: ``p_fail <= 2**-20``, the bound the
#: ``repro noise`` verdict already gates on.
DEFAULT_LOG2_BUDGET = -20.0

#: Probabilities below ``2**LOG2_PROB_FLOOR`` are clamped: "numerically
#: zero", and keeps the JSON output free of ``-Infinity``.
LOG2_PROB_FLOOR = -4096.0

_LOG2_E = math.log2(math.e)
#: Above this many sigmas ``erfc(z/sqrt(2))`` underflows double precision.
_ERFC_Z_LIMIT = 36.0


def gaussian_tail_log2(margin: float, variance: float) -> float:
    """``log2 P(|N(0, variance)| > margin)``, safe far into the tail.

    Returns 0.0 (probability one) for non-positive margins and
    :data:`LOG2_PROB_FLOOR` for non-positive variance (a noiseless value
    cannot cross the boundary).
    """
    if margin <= 0.0:
        return 0.0
    if variance <= 0.0:
        return LOG2_PROB_FLOOR
    z = margin / math.sqrt(variance)
    if z < _ERFC_Z_LIMIT:
        p = math.erfc(z / math.sqrt(2.0))
        if p > 0.0:
            return max(math.log2(p), LOG2_PROB_FLOOR)
    # erfc(x) ~ exp(-x^2) / (x * sqrt(pi)) with x = z / sqrt(2):
    log2_p = -0.5 * z * z * _LOG2_E - math.log2(z) + 0.5 * math.log2(2.0 / math.pi)
    return max(log2_p, LOG2_PROB_FLOOR)


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


@dataclass(frozen=True)
class AppFailureReport:
    """Analytic decryption-failure budget for an app-scale workload.

    The simulated workloads (``repro workload``, ``repro profile``) never
    materialize ciphertexts, so there are no tracked failure points to
    sum - instead this report *extrapolates*: one boolean-gate decision
    per bootstrap, with the decision variance taken from the CGGI noise
    algebra (two bootstrapped operands entering the gate's linear
    combination, plus the modulus-switch rounding of the decision phase)
    and the union bound scaled by the workload's bootstrap count.  It is
    the analytic counterpart of :func:`estimate_failure_probability`,
    answering the open telemetry question "does this workload stay inside
    its failure budget at full scale?".
    """

    schema_version: int
    params_name: str
    bootstraps: int
    margin: float
    decision_std_log2: float
    sigmas: float
    per_bootstrap_log2_prob: float
    total_log2_prob: float
    log2_budget: float

    @property
    def within_budget(self) -> bool:
        return self.total_log2_prob <= self.log2_budget

    def to_jsonable(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "params": self.params_name,
            "bootstraps": self.bootstraps,
            "margin": self.margin,
            "decision_std_log2": self.decision_std_log2,
            "sigmas": self.sigmas,
            "per_bootstrap_log2_prob": self.per_bootstrap_log2_prob,
            "total_log2_prob": self.total_log2_prob,
            "log2_budget": self.log2_budget,
            "within_budget": self.within_budget,
        }

    def render_text(self) -> str:
        zero = ("  (numerically zero)"
                if self.total_log2_prob <= LOG2_PROB_FLOOR else "")
        return "\n".join([
            f"analytic failure budget ({self.params_name}, "
            f"{self.bootstraps:,} bootstraps):",
            f"  decision margin {self.margin:.4g}, std "
            f"2^{self.decision_std_log2:.1f} ({self.sigmas:.1f} sigma)",
            f"  log2(p_fail) <= {self.total_log2_prob:.1f}{zero}",
            f"  within 2^{self.log2_budget:.0f} budget: "
            f"{'yes' if self.within_budget else 'NO'}",
        ])


def estimate_app_failure(params, bootstraps: int,
                         margin: float = 1.0 / 8.0,
                         log2_budget: float = DEFAULT_LOG2_BUDGET) -> AppFailureReport:
    """Analytic union-bound failure probability for ``bootstraps`` gates.

    ``margin`` is the decision margin per bootstrap in torus units; the
    default ``1/8`` is the boolean-gate margin (quarter-torus plaintexts,
    the decision phase lands half a step from the boundary).
    """
    from ..tfhe.noise import (
        blind_rotation_noise_variance,
        key_switch_noise_variance,
        modulus_switch_noise_variance,
    )

    bootstrap_out = key_switch_noise_variance(
        params, blind_rotation_noise_variance(params)
    )
    # A gate decision sees the sum of two bootstrapped operands plus the
    # modswitch rounding of its own decision phase.
    variance = 2.0 * bootstrap_out + modulus_switch_noise_variance(params)
    std = math.sqrt(variance)
    per_point = gaussian_tail_log2(margin, variance)
    count = max(int(bootstraps), 1)
    total = min(per_point + math.log2(count), 0.0)
    total = max(total, LOG2_PROB_FLOOR)
    return AppFailureReport(
        schema_version=FAILPROB_SCHEMA_VERSION,
        params_name=params.name,
        bootstraps=count,
        margin=margin,
        decision_std_log2=math.log2(std) if std > 0.0 else LOG2_PROB_FLOOR,
        sigmas=margin / std if std > 0.0 else math.inf,
        per_bootstrap_log2_prob=per_point,
        total_log2_prob=total,
        log2_budget=log2_budget,
    )


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
