"""Simplified LWE security estimation for the parameter sets (Table III).

A full lattice estimator is out of scope; we use the standard
rule-of-thumb linear model for binary-secret LWE under lattice-reduction
attacks (the same first-order model parameter-selection tools start
from):

``lambda ~= SECURITY_SLOPE * n / log2(q / sigma)``

where ``sigma`` is the noise standard deviation as a torus fraction.
The slope is calibrated on the TFHE-rs 128-bit point our set IV descends
from (n=742, sigma=2^-15 -> 128 bits), which also places set I at ~86
bits (claimed 80) and set II at ~109 (claimed 110).

Expected honest outcome (see DESIGN.md's parameter-set note): because
this repository re-derives the noise levels for a 32-bit modulus so the
*functional* bootstrap closes, the high-security small-n sets (III, B,
C) estimate below their 64-bit-modulus claims - the estimator makes that
substitution visible rather than hiding it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .params import Q_BITS, TFHEParams

__all__ = ["SECURITY_SLOPE", "SecurityEstimate", "estimate_security", "classify_parameter_set"]

#: Calibrated so (n=742, sigma=2^-15) -> 128 bits, matching the TFHE-rs
#: 128-bit boolean set this repo's set IV descends from.
SECURITY_SLOPE = 2.59


def estimate_security(n: int, noise_log2: float) -> float:
    """First-order security level (bits) of one LWE instance over ``q = 2**Q_BITS``.

    ``noise_log2`` is the noise stddev as a torus fraction, so the
    modulus-to-noise ratio is ``log2(q/sigma) = -noise_log2``.
    """
    if n <= 0:
        raise ValueError("dimension must be positive")
    log_ratio = -noise_log2
    if log_ratio <= 0:
        raise ValueError("noise must be below the torus scale")
    if log_ratio >= Q_BITS:
        # Noise below the quantization floor: the effective ratio is the
        # full modulus width.
        log_ratio = Q_BITS
    return SECURITY_SLOPE * n / log_ratio


@dataclass(frozen=True)
class SecurityEstimate:
    """Security of both halves of a TFHE parameter set."""

    lwe_bits: float
    glwe_bits: float
    claimed_bits: int

    @property
    def effective_bits(self) -> float:
        """The scheme is only as strong as its weaker half."""
        return min(self.lwe_bits, self.glwe_bits)

    @property
    def meets_claim(self) -> bool:
        # Allow 20% estimator slack; this is a first-order model.
        return self.effective_bits >= 0.8 * self.claimed_bits


def classify_parameter_set(params: TFHEParams) -> SecurityEstimate:
    """Estimate the security of both the LWE and GLWE halves of a set."""
    lwe = estimate_security(params.n, params.lwe_noise_log2)
    glwe = estimate_security(params.k * params.N, params.glwe_noise_log2)
    return SecurityEstimate(lwe_bits=lwe, glwe_bits=glwe, claimed_bits=params.lam)
