"""VER008: static noise-budget bounds - the compile-time twin of
``repro obs noise``.

The runtime noise telemetry (:mod:`repro.observability.noise` +
:mod:`repro.observability.failprob`) measures failure probability from
ciphertexts an execution actually produced.  This pass derives the same
bound *statically*: it propagates predicted CGGI variance through the
instruction stream along its dependency edges using the
:mod:`repro.tfhe.noise` algebra - a blind rotation emits
``n`` chained external products' worth of fresh noise, sample-extract
passes it through, key-switch adds the KSK digit terms - and bounds the
workload's decryption-failure probability as a union bound over one
boolean-gate decision per bootstrapped ciphertext.  The decision
geometry (:func:`repro.tfhe.noise.decision_margin` at ``p = 8``) is the
same LUT-bucket margin the runtime tracker records at each
``bootstrap_decision`` point, so the static bound and the measured
``repro obs noise --fail-prob`` report agree up to the union-bound
slack (``log2`` of the bootstrap count); both are a
:class:`~repro.tfhe.noise.FailureBound`.  ``repro workload --noise`` and
``repro obs profile --noise`` print this report for their lowered
streams.

Budget overruns are **warnings**, not errors: a parameter set that
breaches 2^-20 at workload scale (set IV's single-level decomposition
does) is a cryptographic-regime risk worth surfacing on every compile,
but the program itself is well-formed and the timing model's results
stand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional

import numpy as np

from ..core.isa import DmaOp, Program, VpuOp, XpuOp, as_columns, opcode_mask
from ..tfhe.noise import (
    DEFAULT_LOG2_BUDGET,
    LOG2_PROB_FLOOR,
    FailureBound,
    blind_rotation_noise_variance,
    decision_margin,
    gaussian_tail_log2,
    key_switch_noise_variance,
    modulus_switch_noise_variance,
    union_bound_log2,
)
from .diagnostics import Diagnostic, Severity
from .program import VerifyContext, register_program_pass

__all__ = [
    "StaticNoiseReport",
    "static_noise_report",
]

#: Ops whose result carries their operand's variance onward (KEY_SWITCH
#: adds its own terms on top), as a table over opcode slots.
_PASSING = opcode_mask((VpuOp.KEY_SWITCH, VpuOp.SAMPLE_EXTRACT, DmaOp.STORE_LWE))


@dataclass(frozen=True)
class StaticNoiseReport(FailureBound):
    """Statically derived failure-probability bound for one stream."""

    params_name: str
    bootstraps: int
    margin: float
    ms_variance: float
    bootstrap_output_variance: float
    decision_variance: float
    decision_std_log2: float
    sigmas: float
    per_bootstrap_log2_prob: float

    def to_jsonable(self) -> dict:
        return {
            **super().to_jsonable(),
            "params": self.params_name,
            "bootstraps": self.bootstraps,
            "margin": self.margin,
            "ms_variance": self.ms_variance,
            "bootstrap_output_variance": self.bootstrap_output_variance,
            "decision_variance": self.decision_variance,
            "decision_std_log2": self.decision_std_log2,
            "sigmas": self.sigmas,
            "per_bootstrap_log2_prob": self.per_bootstrap_log2_prob,
        }

    def _lines(self) -> List[str]:
        return [
            f"static noise budget ({self.params_name}, "
            f"{self.bootstraps:,} bootstraps):",
            f"  decision margin {self.margin:.4g}, std "
            f"2^{self.decision_std_log2:.1f} ({self.sigmas:.1f} sigma)",
        ]


def static_noise_report(
    instructions: Program, params: object,
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
    all of them is the reported total, at the gate dialect's ``p = 8``
    :func:`~repro.tfhe.noise.decision_margin` against
    :data:`~repro.tfhe.noise.DEFAULT_LOG2_BUDGET`.
    """
    margin = decision_margin(params, 8)
    br_variance = blind_rotation_noise_variance(params)
    ms_variance = modulus_switch_noise_variance(params)

    # Only BR / SE / KS / STORE results carry variance: every other
    # row's output is noise-free, and a dependency reads the latest
    # earlier variance-carrying row with its id (0.0 if there is none).
    # The propagation runs over those rows alone, renumbered by ``slot``.
    cols = as_columns(instructions)
    rotation = cols.code == XpuOp.BLIND_ROTATE.code
    passing = _PASSING[cols.slot]
    carries = rotation | passing
    rows = np.flatnonzero(carries)
    slot = np.cumsum(carries) - 1
    mine = passing[cols.owner]  # the dependencies passing rows read
    reader = cols.owner[mine]
    src = cols.resolve(cols.deps[mine], reader, among=carries)
    reads = src >= 0
    src, reader = slot[src[reads]], slot[reader[reads]]
    key_switch = np.flatnonzero(cols.code[rows] == VpuOp.KEY_SWITCH.code)
    bootstraps = int(np.maximum(cols.count[rotation], 0).sum())
    # Every edge points to an earlier row, so sweeping "each passing row
    # takes its operands' max, a key switch adds its terms" reaches the
    # in-order result after (longest chain) sweeps: the last one moves
    # no row that another reads.  A rotation's variance is fixed; a
    # passing row's starts at 0.0.
    fresh = np.where(rotation[rows], br_variance, 0.0)
    variance = fresh
    while True:
        out = fresh.copy()
        np.maximum.at(out, reader, variance[src])
        operand = out[key_switch]
        operands = np.unique(operand)
        out[key_switch] = np.array([key_switch_noise_variance(params, v) for v in
                                    operands.tolist()])[np.searchsorted(operands, operand)]
        moved = out != variance
        variance = out
        if not moved[src].any():
            break
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
    return StaticNoiseReport(
        total_log2_prob=union_bound_log2([(per_point, max(bootstraps, 1))]),
        params_name=str(getattr(params, "name", "<params>")),
        bootstraps=bootstraps,
        margin=margin,
        ms_variance=ms_variance,
        bootstrap_output_variance=terminal,
        decision_variance=decision_variance,
        decision_std_log2=(math.log2(std) if std > 0.0 else LOG2_PROB_FLOOR),
        sigmas=(margin / std if std > 0.0 else math.inf),
        per_bootstrap_log2_prob=per_point,
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
            f"breaches the 2^{DEFAULT_LOG2_BUDGET:.0f} budget over "
            f"{report.bootstraps:,} bootstraps under {report.params_name} "
            f"({report.sigmas:.1f} sigma decision margin): the parameter "
            f"regime, not the program, is the risk"
        ),
        instruction_index=first_br,
        op=XpuOp.BLIND_ROTATE.value if first_br is not None else None,
    )
