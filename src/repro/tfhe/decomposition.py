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

The digits are extracted carry-free in ``uint32``.  Balanced digits
``d_j in [-beta/2, beta/2)`` with ``v = sum_j d_j beta**j`` (mod
``beta**levels``) are unique, and adding the bias ``sum_j (beta/2)
beta**j`` turns each into ``d_j + beta/2 in [0, beta)`` - the plain
base-``beta`` digits of ``v + bias``, which are bit fields.  So
``d_j = (((v + bias) >> j*beta_bits) & (beta - 1)) - beta/2`` with no
carry chain.  The rounding add and the bias share one constant (``bias``
is pre-shifted past the dropped bits), and ``uint32`` wraparound of that
add only touches bits the masks discard.  All levels come out of one
right shift against a ``(levels, 1, ..., 1)`` column of shift amounts:
with the level axis first, each level's shift is a scalar over a
contiguous run of words, numpy's fast loop.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from .torus import Q_BITS, u32

__all__ = [
    "decompose",
    "decompose_folded",
]


@lru_cache(maxsize=None)
def _digit_fields(
    beta_bits: int, levels: int, ndim: int
) -> Tuple[np.uint32, np.ndarray, np.uint32, Tuple[int, ...]]:
    """Offset (rounding + bias), ``(levels, 1, ..., 1)`` right shifts (level
    0 is the top field), field mask, and the axis order that moves the
    level axis next to the coefficients, for ``ndim``-D input."""
    if beta_bits * levels > Q_BITS:
        raise ValueError("decomposition exceeds the modulus width")
    half_beta = 1 << (beta_bits - 1)
    drop_bits = Q_BITS - beta_bits * levels
    bias = sum(half_beta << (drop_bits + beta_bits * j) for j in range(levels))
    rounding = (1 << (drop_bits - 1)) if drop_bits else 0
    shifts = np.array([Q_BITS - beta_bits * (j + 1) for j in range(levels)], dtype=np.uint32)
    shifts = shifts.reshape((levels,) + (1,) * ndim)
    shifts.setflags(write=False)
    level_last = tuple(range(1, ndim)) + (0, ndim)
    return u32(bias + rounding), shifts, np.uint32(2 * half_beta - 1), level_last


def _digits(values: np.ndarray, beta_bits: int, levels: int) -> np.ndarray:
    """Centred int32 digits, shaped ``values.shape[:-1] + (levels, N)``
    (a view of a level-first array)."""
    v = np.asarray(values, dtype=np.uint32)
    offset, shifts, mask, level_last = _digit_fields(beta_bits, levels, v.ndim)
    digit = np.right_shift(v + offset, shifts)  # (levels, ..., N)
    digit &= mask
    signed = digit.view(np.int32)
    signed -= 1 << (beta_bits - 1)
    return signed.transpose(level_last)


def decompose(values: np.ndarray, beta_bits: int, levels: int) -> np.ndarray:
    """Balanced base-``2**beta_bits`` decomposition of torus numerators.

    ``values`` are uint32 torus numerators of any shape; ``beta_bits`` and
    ``levels`` are the digit width (``log2 beta``) and the number of
    digits ``l``.  Returns a C-contiguous int64 array of shape
    ``values.shape[:-1] + (levels,) + values.shape[-1:]`` holding centered
    digits; digit ``j`` (0-based) carries weight ``q / beta**(j+1)``.
    """
    return _digits(values, beta_bits, levels).astype(np.int64, order="C")


def decompose_folded(
    values: np.ndarray,
    beta_bits: int,
    levels: int,
) -> np.ndarray:
    """The digits of :func:`decompose`, laid out as negacyclic-FFT input.

    Returns a complex array of shape ``values.shape[:-1] + (levels, N/2)``
    whose entry ``[..., j, m]`` is ``d_j[m] + i * d_j[m + N/2]`` - digit
    level ``j`` of each polynomial, already folded for
    :func:`repro.transforms.negacyclic.negacyclic_fft_folded`.  This is
    the external product's decomposition: two strided copies move every
    level's low and high halves into the real and imaginary parts, and no
    int64 digit array, float copy or fold copy is ever materialized.
    """
    signed = _digits(values, beta_bits, levels)
    half_n = signed.shape[-1] // 2
    folded = np.empty(signed.shape[:-1] + (half_n,), dtype=np.complex128)
    folded.real = signed[..., :half_n]
    folded.imag = signed[..., half_n:]
    return folded
