"""Signed (balanced) gadget decomposition.

The external product and key switching both decompose torus values into
``l`` small digits of base ``beta`` so noise growth stays linear in
``beta`` rather than in ``q`` (Section II-B):

``Decomp(c) = (d_1, ..., d_l)`` with ``c ~= sum_j d_j * q / beta**j``
and balanced digits ``d_j in [-beta/2, beta/2)``.

Hardware-wise this is the Decomposition Unit's bit-slice + round step
(Section V-A1).  The decomposition is *approximate*: the bits below
``q/beta**l`` are rounded away first, bounding the recomposition error by
``q / (2 * beta**l)``.
"""

from __future__ import annotations

import numpy as np

from .torus import u32

__all__ = [
    "decompose",
    "decompose_folded",
    "recompose",
    "decomposition_error_bound",
]


def decompose(values: np.ndarray, beta_bits: int, levels: int, q_bits: int = 32) -> np.ndarray:
    """Balanced base-``2**beta_bits`` decomposition of torus numerators.

    Parameters
    ----------
    values:
        uint32 torus numerators, any shape.
    beta_bits, levels:
        Digit width (``log2 beta``) and number of digits ``l``.
    q_bits:
        Ciphertext modulus width.

    Returns
    -------
    int64 array of shape ``values.shape[:-1] + (levels,) + values.shape[-1:]``
    holding centered digits; digit ``j`` (0-based) carries weight
    ``q / beta**(j+1)``.
    """
    if beta_bits * levels > q_bits:
        raise ValueError("decomposition exceeds the modulus width")
    beta = 1 << beta_bits
    v = np.asarray(values, dtype=np.uint32).astype(np.int64)
    # Round to the closest multiple of q / beta**levels (drop the low bits).
    drop_bits = q_bits - beta_bits * levels
    if drop_bits:
        v = (v + (1 << (drop_bits - 1))) >> drop_bits
    # v now has levels*beta_bits significant bits; extract balanced digits
    # least-significant first, propagating the balancing carry upward.
    out_shape = values.shape[:-1] + (levels,) + values.shape[-1:]
    digits = np.empty(out_shape, dtype=np.int64)
    for j in range(levels - 1, -1, -1):
        d = v & (beta - 1)
        carry = d >= beta // 2
        d = d - carry * beta
        v = (v - d) >> beta_bits
        # Move the digit axis next to the coefficient axis.
        digits[..., j, :] = d
    return digits


def decompose_folded(
    values: np.ndarray,
    beta_bits: int,
    levels: int,
    q_bits: int = 32,
) -> np.ndarray:
    """The digits of :func:`decompose`, laid out as negacyclic-FFT input.

    Returns a complex array of shape ``values.shape[:-1] + (levels, N/2)``
    whose entry ``[..., j, m]`` is ``d_j[m] + i * d_j[m + N/2]`` - digit
    level ``j`` of each polynomial, already folded for
    :func:`repro.transforms.negacyclic.negacyclic_fft_folded`.  This is
    the external product's decomposition: no int64 digit array, no float
    copy of it and no fold copy are ever materialized.

    The digits are extracted carry-free in ``uint32``.  Balanced digits
    ``d_j in [-beta/2, beta/2)`` with ``v = sum_j d_j beta**j`` (mod
    ``beta**levels``) are unique, and adding the bias ``sum_j (beta/2)
    beta**j`` turns each into ``d_j + beta/2 in [0, beta)`` - the plain
    base-``beta`` digits of ``v + bias``, which are bit fields.  So
    ``d_j = (((v + bias) >> j*beta_bits) & (beta - 1)) - beta/2`` with no
    carry chain.  The rounding add and the bias share one constant
    (``bias`` is pre-shifted past the dropped bits), and ``uint32``
    wraparound of that add only touches bits the masks discard.
    """
    if beta_bits * levels > q_bits:
        raise ValueError("decomposition exceeds the modulus width")
    half_beta = 1 << (beta_bits - 1)
    drop_bits = q_bits - beta_bits * levels
    bias = sum(half_beta << (drop_bits + beta_bits * j) for j in range(levels))
    rounding = (1 << (drop_bits - 1)) if drop_bits else 0
    v = np.asarray(values, dtype=np.uint32) + u32(bias + rounding)
    half_n = v.shape[-1] // 2
    folded = np.empty(v.shape[:-1] + (levels, half_n), dtype=np.complex128)
    real, imag = folded.real, folded.imag
    digit = np.empty(v.shape, dtype=np.uint32)
    signed = digit.view(np.int32)
    low, high = signed[..., :half_n], signed[..., half_n:]
    for j in range(levels):
        # Level j carries weight q / beta**(j+1): level 0 is the top field.
        np.right_shift(v, q_bits - beta_bits * (j + 1), out=digit)
        digit &= np.uint32(2 * half_beta - 1)
        signed -= half_beta
        real[..., j, :] = low
        imag[..., j, :] = high
    return folded


def recompose(digits: np.ndarray, beta_bits: int, q_bits: int = 32) -> np.ndarray:
    """Rebuild torus numerators from balanced digits (inverse of decompose).

    ``digits`` has the level axis second-to-last, as produced by
    :func:`decompose`.
    """
    levels = digits.shape[-2]
    if beta_bits * levels > q_bits:
        raise ValueError("decomposition exceeds the modulus width")
    acc = np.zeros(digits.shape[:-2] + digits.shape[-1:], dtype=np.int64)
    for j in range(levels):
        weight = 1 << (q_bits - beta_bits * (j + 1))
        acc += digits[..., j, :] * weight
    return (acc & ((1 << q_bits) - 1)).astype(np.uint32)


def decomposition_error_bound(beta_bits: int, levels: int, q_bits: int = 32) -> int:
    """Worst-case |c - recompose(decompose(c))| as a centered distance mod q."""
    drop_bits = q_bits - beta_bits * levels
    if drop_bits <= 0:
        return 0
    return 1 << (drop_bits - 1)
