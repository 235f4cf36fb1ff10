"""VER008: static noise-budget bounds - the compile-time twin of
``repro noise``.

The runtime noise telemetry (:mod:`repro.observability.noise` +
:mod:`repro.analysis.failprob`) measures failure probability from
ciphertexts an execution actually produced.  This pass derives the same
bound *statically*: it propagates predicted CGGI variance through the
instruction stream along its dependency edges using the
:mod:`repro.tfhe.noise` algebra - a blind rotation emits
``n`` chained external products' worth of fresh noise, sample-extract
passes it through, key-switch adds the KSK digit terms - and bounds the
workload's decryption-failure probability as a union bound over one
boolean-gate decision per bootstrapped ciphertext.  The decision
geometry (:func:`gate_decision_margin`) is the same LUT-bucket margin
the runtime tracker records at each ``bootstrap_decision`` point, so
the static bound and the measured ``repro noise --fail-prob`` report
agree up to the union-bound slack (``log2`` of the bootstrap count).

Budget overruns are **warnings**, not errors: a parameter set that
breaches 2^-20 at workload scale (set IV's single-level decomposition
does) is a cryptographic-regime risk worth surfacing on every compile,
but the program itself is well-formed and the timing model's results
stand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from ..core.isa import DmaOp, VpuOp, XpuOp
from .diagnostics import Diagnostic, Severity
from .program import VerifyContext, normalise, register_program_pass

__all__ = [
    "STATIC_NOISE_SCHEMA_VERSION",
    "StaticNoiseReport",
    "gate_decision_margin",
    "static_noise_report",
]

STATIC_NOISE_SCHEMA_VERSION = 1

#: Ops whose result carries their operand's variance onward (KEY_SWITCH
#: adds its own terms on top).
_PROPAGATING = (VpuOp.KEY_SWITCH, VpuOp.SAMPLE_EXTRACT, DmaOp.STORE_LWE)


def gate_decision_margin(params: object) -> float:
    """Worst-case boolean-gate decision margin for ``params`` (torus units).

    The gate dialect evaluates its LUTs over ``Z_8`` (quarter-torus
    plaintexts behind a padding bit), so the expected phase sits
    mid-bucket: half a bucket (``1/16``) from the nearest LUT value
    change.  The modulus switch to ``2N`` then quantizes the transition
    to the rotation grid, landing it up to half a rounding step
    (``1/(4N)``) closer.  This is exactly the LUT-geometry margin the
    runtime tracker records at each ``bootstrap_decision`` point, which
    is what makes the static and measured reports comparable.
    """
    n = float(getattr(params, "N", 0) or 1)
    return 1.0 / 16.0 - 1.0 / (4.0 * n)


@dataclass(frozen=True)
class StaticNoiseReport:
    """Statically derived failure-probability bound for one stream."""

    schema_version: int
    params_name: str
    bootstraps: int
    margin: float
    ms_variance: float
    bootstrap_output_variance: float
    decision_variance: float
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
            "ms_variance": self.ms_variance,
            "bootstrap_output_variance": self.bootstrap_output_variance,
            "decision_variance": self.decision_variance,
            "decision_std_log2": self.decision_std_log2,
            "sigmas": self.sigmas,
            "per_bootstrap_log2_prob": self.per_bootstrap_log2_prob,
            "total_log2_prob": self.total_log2_prob,
            "log2_budget": self.log2_budget,
            "within_budget": self.within_budget,
        }

    def render_text(self) -> str:
        from ..analysis.failprob import LOG2_PROB_FLOOR

        zero = ("  (numerically zero)"
                if self.total_log2_prob <= LOG2_PROB_FLOOR else "")
        return "\n".join([
            f"static noise budget ({self.params_name}, "
            f"{self.bootstraps:,} bootstraps):",
            f"  decision margin {self.margin:.4g}, std "
            f"2^{self.decision_std_log2:.1f} ({self.sigmas:.1f} sigma)",
            f"  log2(p_fail) <= {self.total_log2_prob:.1f}{zero}",
            f"  within 2^{self.log2_budget:.0f} budget: "
            f"{'yes' if self.within_budget else 'NO'}",
        ])


def static_noise_report(
    instructions: Iterable[object],
    params: object,
    margin: Optional[float] = None,
    log2_budget: Optional[float] = None,
) -> StaticNoiseReport:
    """Propagate predicted variance through ``instructions`` and bound
    the workload's decryption-failure probability.

    Variance flows along ``depends_on`` edges keyed by opcode: a
    ``BLIND_ROTATE`` produces the fresh ``n``-external-product variance
    regardless of input (the test polynomial restarts the accumulator),
    ``SAMPLE_EXTRACT``/``STORE_LWE`` pass their operand through, and
    ``KEY_SWITCH`` adds the digit-decomposition terms.  Each ciphertext
    of each bootstrapped batch contributes one gate-decision point whose
    variance adds the modulus-switch rounding of the *next* decision
    phase (two bootstrapped operands per gate) - the union bound over
    all of them is the reported total.  ``margin`` defaults to the
    parameter set's :func:`gate_decision_margin`.
    """
    from ..analysis.failprob import (
        DEFAULT_LOG2_BUDGET,
        LOG2_PROB_FLOOR,
        gaussian_tail_log2,
    )
    from ..tfhe.noise import (
        blind_rotation_noise_variance,
        key_switch_noise_variance,
        modulus_switch_noise_variance,
    )

    if margin is None:
        margin = gate_decision_margin(params)
    if log2_budget is None:
        log2_budget = DEFAULT_LOG2_BUDGET
    br_variance = blind_rotation_noise_variance(params)
    ms_variance = modulus_switch_noise_variance(params)

    # Only BR / SE / KS / STORE results carry variance: every other
    # row's output is noise-free, and a dependency reads the latest
    # earlier variance-carrying row with its id (0.0 if there is none).
    cols = normalise(instructions)
    rotation = cols.code == XpuOp.BLIND_ROTATE.code
    key_switch = cols.code == VpuOp.KEY_SWITCH.code
    passing = np.isin(cols.code, [op.code for op in _PROPAGATING])
    src = cols.resolve(cols.deps, cols.owner, among=rotation | passing)
    reads = passing[cols.owner] & (src >= 0)
    src, reader = src[reads], cols.owner[reads]
    bootstraps = int(np.maximum(cols.count[rotation], 0).sum())
    # Every edge points to an earlier row, so sweeping "each passing row
    # takes its operands' max, a key switch adds its terms" until nothing
    # changes reaches the in-order result after (longest chain + 1) sweeps.
    variance = np.where(rotation, br_variance, 0.0)
    while True:
        out = np.zeros(len(cols))
        np.maximum.at(out, reader, variance[src])
        operands, at = np.unique(out[key_switch], return_inverse=True)
        out[key_switch] = np.array([key_switch_noise_variance(params, v)
                                    for v in operands.tolist()])[at]
        out = np.where(passing, out, variance)
        if np.array_equal(out, variance):
            break
        variance = out
    # Worst fully key-switched output variance observed.
    terminal = float(variance[key_switch].max(initial=0.0))
    if terminal <= 0.0:
        # No key-switch in the stream (a bare rotation program): fall
        # back to the closed-form bootstrap output variance.
        terminal = key_switch_noise_variance(params, br_variance)

    # One boolean-gate decision per bootstrapped ciphertext: two
    # bootstrapped operands enter the gate's linear combination, the MS
    # rounding widens the decision phase.
    decision_variance = 2.0 * terminal + ms_variance
    std = math.sqrt(decision_variance) if decision_variance > 0.0 else 0.0
    per_point = gaussian_tail_log2(margin, decision_variance)
    count = max(bootstraps, 1)
    total = min(per_point + math.log2(count), 0.0)
    total = max(total, LOG2_PROB_FLOOR)
    return StaticNoiseReport(
        schema_version=STATIC_NOISE_SCHEMA_VERSION,
        params_name=str(getattr(params, "name", "<params>")),
        bootstraps=bootstraps,
        margin=margin,
        ms_variance=ms_variance,
        bootstrap_output_variance=terminal,
        decision_variance=decision_variance,
        decision_std_log2=(math.log2(std) if std > 0.0 else LOG2_PROB_FLOOR),
        sigmas=(margin / std if std > 0.0 else math.inf),
        per_bootstrap_log2_prob=per_point,
        total_log2_prob=total,
        log2_budget=log2_budget,
    )


# ----------------------------------------------------------------------
# VER008 - static noise budget
# ----------------------------------------------------------------------
@register_program_pass(
    "VER008", "static-noise-budget",
    "statically predicted decryption-failure probability should stay "
    "within the 2^-20 workload budget",
    severity=Severity.WARNING,
)
def _check_noise_budget(ctx: VerifyContext) -> Iterator[Diagnostic]:
    if ctx.params is None:
        return
    report = static_noise_report(ctx.columns, ctx.params)
    if report.bootstraps == 0 or report.within_budget:
        return
    rotations = np.flatnonzero(ctx.columns.code == XpuOp.BLIND_ROTATE.code)
    first_br: Optional[int] = int(rotations[0]) if len(rotations) else None
    yield Diagnostic(
        code="VER008", severity=Severity.WARNING,
        message=(
            f"static failure bound log2(p) <= {report.total_log2_prob:.1f} "
            f"breaches the 2^{report.log2_budget:.0f} budget over "
            f"{report.bootstraps:,} bootstraps under {report.params_name} "
            f"({report.sigmas:.1f} sigma decision margin): the parameter "
            f"regime, not the program, is the risk"
        ),
        instruction_index=first_br,
        op=XpuOp.BLIND_ROTATE.value if first_br is not None else None,
    )
