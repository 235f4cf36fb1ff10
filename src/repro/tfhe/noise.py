"""Noise variance tracking, the decode policy, and measurement.

Theoretical variance formulas follow the CGGI/TFHE analysis (paper
references [14], [34], [35]): the external product adds noise linear in
``beta`` and the decomposition error, key switching adds noise linear in
the KSK digits.  The measurement helpers decrypt with the secret key and
report centered phase error, letting tests assert that observed noise
stays within the predicted budget - the same check the paper's functional
verification performs.

The decode policy lives here too, once: a decision is safe when the
Gaussian tail (:func:`gaussian_tail_log2`) of its variance past
:func:`decision_margin` stays within ``2**DEFAULT_LOG2_BUDGET``, and a
workload is safe when the union bound over its decisions is
(:class:`FailureBound`).  The static noise pass (VER008), the runtime
estimate behind ``repro obs noise``, ``repro workload --noise`` and the
many-LUT sizing all read it.

Tails are worked in log2 space: realistic margins sit hundreds of sigmas
out, where ``erfc`` underflows double precision, so past that point the
asymptotic expansion
``log2 p ~= -z^2/2 * log2(e) - log2(z) + log2(sqrt(2/pi))`` takes over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Tuple

import numpy as np

from ..params import TFHEParams
from .glwe import GlweCiphertext, GlweSecretKey, glwe_decrypt_phase
from .lwe import LweCiphertext, LweSecretKey, lwe_decrypt_phase
from .torus import to_signed, to_torus

__all__ = [
    "external_product_noise_variance",
    "blind_rotation_noise_variance",
    "key_switch_noise_variance",
    "modulus_switch_noise_variance",
    "bootstrap_output_noise_std_log2",
    "DEFAULT_LOG2_BUDGET",
    "LOG2_PROB_FLOOR",
    "decision_margin",
    "gaussian_tail_log2",
    "union_bound_log2",
    "FailureBound",
    "measure_lwe_noise",
    "measure_glwe_noise",
]

_Q = 2.0 ** 32

#: Default workload failure budget: ``p_fail <= 2**-20``.
DEFAULT_LOG2_BUDGET = -20.0

#: Probabilities below ``2**LOG2_PROB_FLOOR`` are clamped: "numerically
#: zero", and keeps the JSON output free of ``-Infinity``.
LOG2_PROB_FLOOR = -4096.0

_LOG2_E = math.log2(math.e)
#: Above this many sigmas ``erfc(z/sqrt(2))`` underflows double precision.
_ERFC_Z_LIMIT = 36.0


def _var_from_log2(std_log2: float) -> float:
    """Variance (torus units) of a Gaussian with stddev ``2**std_log2``."""
    return (2.0 ** std_log2) ** 2


def external_product_noise_variance(params: TFHEParams, input_variance: float) -> float:
    """Output noise variance of one external product (torus units).

    ``V_out ~= (k+1) * l_b * N * (beta/2)**2 * V_ggsw
    + input_variance + V_decomp``
    where the decomposition error contributes
    ``(1 + k*N) * eps**2 / 12`` with ``eps = 1/beta**l_b`` (uniform
    rounding error model).
    """
    beta = float(params.beta)
    v_ggsw = _var_from_log2(params.glwe_noise_log2)
    gadget_term = (params.k + 1) * params.l_b * params.N * (beta / 2.0) ** 2 * v_ggsw
    eps = beta ** (-params.l_b)
    decomp_term = (1 + params.k * params.N) * (eps ** 2) / 12.0
    return gadget_term + input_variance + decomp_term


def blind_rotation_noise_variance(params: TFHEParams) -> float:
    """Noise variance after ``n`` chained external products (fresh TP start)."""
    variance = 0.0
    per_step = external_product_noise_variance(params, 0.0)
    return params.n * per_step + variance


def key_switch_noise_variance(params: TFHEParams, input_variance: float) -> float:
    """Noise variance added by key switching the extracted ciphertext."""
    v_ksk = _var_from_log2(params.lwe_noise_log2)
    kn = params.k * params.N
    digit_term = kn * params.l_k * ((params.beta_ks / 2.0) ** 2 / 3.0) * v_ksk
    eps = float(params.beta_ks) ** (-params.l_k)
    decomp_term = kn * (eps ** 2) / 12.0
    return input_variance + digit_term + decomp_term


def modulus_switch_noise_variance(params: TFHEParams) -> float:
    """Variance (torus units) of the rounding error added by MS to ``2N``.

    Each of the ``n + 1`` numerators rounds to the ``Z_{2N}`` grid with a
    uniform error of width ``1/(2N)``; the ``a_i`` errors enter the phase
    weighted by the key bits (E[s_i] = 1/2 for binary keys):

    ``V_ms = (1/(2N))**2 / 12 * (1 + n/2)``

    This error never shows up in the bootstrap *output* noise (the test
    polynomial is piecewise constant over the ``Z_{2N}`` buckets) - it
    widens the *decision* distribution that picks the bucket, so it
    belongs in decryption-failure estimates, not output-noise prediction.
    """
    step = 1.0 / (2.0 * params.N)
    return step * step / 12.0 * (1.0 + params.n / 2.0)


def bootstrap_output_noise_std_log2(params: TFHEParams) -> float:
    """Predicted stddev (log2, torus units) of a bootstrapped ciphertext."""
    v = key_switch_noise_variance(params, blind_rotation_noise_variance(params))
    return 0.5 * math.log2(max(v, 1e-300))


def decision_margin(params: TFHEParams, p: int, luts: int = 1) -> float:
    """Worst-case margin (torus units) of one bootstrap decision.

    A LUT over ``Z_p`` interleaving ``luts`` tables gives each input a
    bucket ``1/(p * luts)`` wide; the expected phase sits mid-bucket, half
    a bucket from the nearest value change.  The modulus switch to ``2N``
    then quantizes the transition to the rotation grid, landing it up to
    half a rounding step (``1/(4N)``) closer.  At ``p = 8`` (the boolean
    gates' quarter-torus plaintexts behind a padding bit) this is the
    LUT-geometry margin the runtime tracker records at each
    ``bootstrap_decision`` point.
    """
    return 1.0 / (2.0 * p * luts) - 1.0 / (4.0 * params.N)


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


def union_bound_log2(terms: Iterable[Tuple[float, int]]) -> float:
    """``log2 sum(count * 2**log2_p)`` over ``(log2_p, count)`` terms.

    The union bound on a workload's failure probability, summed in log2
    space so deep tails do not vanish: :data:`LOG2_PROB_FLOOR` when every
    term is at the floor (or there is none), capped at 0 (probability
    one) above.
    """
    terms = list(terms)
    top = max((log2_p for log2_p, _ in terms), default=LOG2_PROB_FLOOR)
    if top <= LOG2_PROB_FLOOR:
        return LOG2_PROB_FLOOR
    total = top + math.log2(sum(count * 2.0 ** (log2_p - top) for log2_p, count in terms))
    return min(total, 0.0)


@dataclass(frozen=True)
class FailureBound:
    """A workload's decryption-failure bound against the decode budget.

    ``total_log2_prob`` is a :func:`union_bound_log2`; the static VER008
    report and the runtime estimate over tracked decision points both
    extend this type, adding the lines :meth:`_lines` renders and the
    fields :meth:`to_jsonable` lists.
    """

    total_log2_prob: float

    @property
    def within_budget(self) -> bool:
        """True when the failure probability is ``<= 2**DEFAULT_LOG2_BUDGET``."""
        return self.total_log2_prob <= DEFAULT_LOG2_BUDGET

    def _lines(self) -> List[str]:
        return []

    def render_text(self) -> str:
        """The report's own lines, then the bound and its verdict."""
        zero = ("  (numerically zero)"
                if self.total_log2_prob <= LOG2_PROB_FLOOR else "")
        return "\n".join(self._lines() + [
            f"  log2(p_fail) <= {self.total_log2_prob:.1f}{zero}",
            f"  within 2^{DEFAULT_LOG2_BUDGET:.0f} budget: "
            f"{'yes' if self.within_budget else 'NO'}",
        ])

    def to_jsonable(self) -> dict:
        return {
            "total_log2_prob": self.total_log2_prob,
            "log2_budget": DEFAULT_LOG2_BUDGET,
            "within_budget": self.within_budget,
        }


def _centered_torus_error(phase: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """Centered distance on the torus between observed and expected numerators."""
    diff = (np.asarray(phase, np.uint32).astype(np.int64)
            - np.asarray(expected, np.uint32).astype(np.int64))
    return to_signed(to_torus(diff)) / _Q


def measure_lwe_noise(ct: LweCiphertext, key: LweSecretKey, expected_torus: int) -> float:
    """Observed phase error of an LWE ciphertext, in torus units."""
    phase = lwe_decrypt_phase(ct, key)
    return float(_centered_torus_error(np.asarray(phase), np.asarray(expected_torus))[()])


def measure_glwe_noise(ct: GlweCiphertext, key: GlweSecretKey, expected_poly: np.ndarray) -> np.ndarray:
    """Observed per-coefficient phase error of a GLWE ciphertext."""
    phase = glwe_decrypt_phase(ct, key)
    return _centered_torus_error(phase, expected_poly)
