"""Negacyclic (anti-circular) convolution via a half-size twisted FFT.

TFHE polynomials live in ``Z_q[X]/(X^N + 1)``.  Multiplication in that ring
is *negacyclic* convolution.  Following Klemsa's extended-Fourier method
(the paper's reference [39]) a length-``N`` negacyclic transform folds into
a single ``N/2``-point complex FFT:

1. Fold: pair the real coefficients as ``z[j] = p[j] + i * p[j + N/2]``.
2. Twist: multiply by ``omega^j`` with ``omega = exp(i*pi/N)`` (a primitive
   4N-th root raised to odd powers absorbs the ``X^N = -1`` wraparound).
3. Run an ``N/2``-point FFT.

The inverse untwists and unfolds.  This is exactly the trick Morphling's
hardware exploits: an ``N``-coefficient polynomial costs one ``N/2``-point
FFT pass, which is why the simulator charges ``(N/2)/lanes`` cycles per
polynomial transform.

This module is the one place a transform runs.  The FFT is numpy's
pocketfft, called through the gufuncs behind ``np.fft.fft`` / ``ifft``
(numpy >= 2.0): their spectra bit for bit, without the Python wrapper.
``transforms_fft_total{direction}`` counts every polynomial transform at
the negacyclic boundary, whatever engine :func:`_fft` / :func:`_ifft`
are bound to (the tests swap in a radix-2 oracle).
"""

from __future__ import annotations

import math
from types import ModuleType
from typing import Dict, Optional, Tuple

import numpy as np

from ..observability import REGISTRY as _METRICS

__all__ = [
    "negacyclic_fft",
    "negacyclic_fft_folded",
    "negacyclic_ifft_folded",
    "transform_length",
]

_TWIST_CACHE: dict = {}
_INVERSE_SCALES: Dict[Tuple[int, np.dtype], np.floating] = {}
_POCKETFFT: Optional[ModuleType] = None

_FFT_CALLS = _METRICS.counter(
    "transforms_fft_total", "FFT passes executed, by direction (batch-aware)"
)


def _pocketfft() -> ModuleType:
    # Late import: numpy >= 2 loads numpy.fft lazily, so `import repro`
    # stays as cheap for callers that never transform.
    global _POCKETFFT
    if _POCKETFFT is None:
        from numpy.fft import _pocketfft_umath

        _POCKETFFT = _pocketfft_umath
    return _POCKETFFT


def _fft(x: np.ndarray) -> np.ndarray:
    """Forward FFT along the last axis: fresh, C-contiguous, input dtype."""
    return (_POCKETFFT or _pocketfft()).fft(x, 1, out=np.empty(x.shape, dtype=x.dtype))


def _ifft(x: np.ndarray) -> np.ndarray:
    """Inverse FFT along the last axis (``_ifft(_fft(x)) == x``)."""
    # 1/n in the input's real dtype, as `np.fft.ifft` passes it (a Python
    # float would run complex64 input through the complex128 loop).
    key = (x.shape[-1], x.dtype)
    scale = _INVERSE_SCALES.get(key)
    if scale is None:
        scale = _INVERSE_SCALES[key] = np.reciprocal(key[0], dtype=x.real.dtype)
    return (_POCKETFFT or _pocketfft()).ifft(x, scale, out=np.empty(x.shape, dtype=x.dtype))


def transform_length(n: int) -> int:
    """FFT length used for an ``n``-coefficient negacyclic transform."""
    if n < 2 or n & (n - 1):
        raise ValueError(f"polynomial size must be a power of two >= 2, got {n}")
    return n // 2


def _twist(n: int, inverse: bool = False) -> np.ndarray:
    """Twisting factors ``exp(i*pi*j/n)`` for the folded transform.

    ``inverse`` returns their conjugates (the untwist).  Cached per
    ``(n, inverse)``.
    """
    key = (n, inverse)
    tw = _TWIST_CACHE.get(key)
    if tw is None:
        if inverse:
            tw = np.conj(_twist(n))
        else:
            tw = np.exp(1j * np.pi * np.arange(n // 2) / n)
        _TWIST_CACHE[key] = tw
    return tw


def negacyclic_fft(p: np.ndarray) -> np.ndarray:
    """Forward negacyclic transform of real coefficients (last axis = N).

    Returns ``N/2`` complex points - the evaluations of ``p`` at the odd
    powers of the primitive ``2N``-th root of unity.  Batched over leading
    axes; runs in ``complex128``.
    """
    p = np.asarray(p)
    half = transform_length(p.shape[-1])
    folded = np.empty(p.shape[:-1] + (half,), dtype=np.complex128)
    folded.real = p[..., :half]
    folded.imag = p[..., half:]
    return negacyclic_fft_folded(folded)


def negacyclic_fft_folded(folded: np.ndarray) -> np.ndarray:
    """Forward negacyclic transform of already-folded ``complex128`` input.

    ``folded[..., j] = p[j] + i * p[j + N/2]`` (step 1 of the module
    docstring) for ``N = 2 * folded.shape[-1]``; callers that produce
    their coefficients in halves write them straight into such a buffer
    and skip the fold copy.  ``folded`` is twisted **in place** and must
    not be reused.
    """
    if _METRICS.enabled:
        _FFT_CALLS.inc(math.prod(folded.shape[:-1]), direction="forward")
    folded *= _twist(2 * folded.shape[-1])
    return _fft(folded)


def negacyclic_ifft_folded(spectrum: np.ndarray, n: int) -> np.ndarray:
    """Inverse negacyclic transform of a ``complex128`` spectrum, left folded.

    Returns the ``N/2`` complex points ``p[j] + i * p[j + N/2]`` of the
    ``n`` real coefficients; callers round anyway, so they fuse the unfold
    into the rounding (:func:`repro.tfhe.polynomial.from_spectrum`).
    """
    half = transform_length(n)
    if spectrum.shape[-1] != half:
        raise ValueError(
            f"spectrum length {spectrum.shape[-1]} != N/2 = {half}"
        )
    if _METRICS.enabled:
        _FFT_CALLS.inc(math.prod(spectrum.shape[:-1]), direction="inverse")
    folded = _ifft(spectrum)
    folded *= _twist(n, inverse=True)
    return folded
