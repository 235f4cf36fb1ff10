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

Also provided is an exact int64 negacyclic convolution used as the
reference ("golden") multiplier in tests and for small functional runs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..observability import REGISTRY as _METRICS
from .fft import fft, ifft

__all__ = [
    "negacyclic_fft",
    "negacyclic_fft_folded",
    "negacyclic_ifft",
    "negacyclic_ifft_folded",
    "negacyclic_convolve_fft",
    "negacyclic_convolve_exact",
    "transform_length",
]

_TWIST_CACHE: dict = {}

_NEGACYCLIC = _METRICS.counter(
    "transforms_negacyclic_total",
    "Negacyclic polynomial transforms, by direction (batch-aware)",
)


def _count_polys(shape: Tuple[int, ...]) -> int:
    count = 1
    for dim in shape[:-1]:
        count *= int(dim)
    return count


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
    """Forward negacyclic transform of already-folded input.

    ``folded[..., j] = p[j] + i * p[j + N/2]`` (step 1 of the module
    docstring) for ``N = 2 * folded.shape[-1]``; callers that produce
    their coefficients in halves write them straight into such a buffer
    and skip the fold copy.  ``folded`` is twisted **in place** and must
    not be reused.
    """
    n = 2 * folded.shape[-1]
    if _METRICS.enabled:
        _NEGACYCLIC.inc(_count_polys(folded.shape), direction="forward")
    folded *= _twist(n)
    return fft(folded)


def negacyclic_ifft_folded(spectrum: np.ndarray, n: int) -> np.ndarray:
    """Inverse negacyclic transform, left folded.

    Returns the ``N/2`` complex points ``p[j] + i * p[j + N/2]`` of the
    ``n`` real coefficients; :func:`negacyclic_ifft` unfolds them, callers
    that round anyway fuse the unfold into the rounding.
    """
    half = transform_length(n)
    if spectrum.shape[-1] != half:
        raise ValueError(
            f"spectrum length {spectrum.shape[-1]} != N/2 = {half}"
        )
    if _METRICS.enabled:
        _NEGACYCLIC.inc(_count_polys(spectrum.shape), direction="inverse")
    folded = ifft(spectrum)
    folded *= _twist(n, inverse=True)
    return folded


def negacyclic_ifft(spectrum: np.ndarray, n: int) -> np.ndarray:
    """Inverse negacyclic transform back to ``n`` real coefficients."""
    folded = negacyclic_ifft_folded(spectrum, n)
    half = n // 2
    out = np.empty(spectrum.shape[:-1] + (n,), dtype=np.float64)
    out[..., :half] = folded.real
    out[..., half:] = folded.imag
    return out


def negacyclic_convolve_fft(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Negacyclic product of real coefficient vectors via the twisted FFT.

    The result is real-valued floats; callers round and reduce modulo
    ``q``.  Exact as long as every intermediate product magnitude stays
    below ~2**52 (the float64 mantissa), which holds for TFHE because the
    decomposed operand coefficients are bounded by ``beta/2``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = a.shape[-1]
    if b.shape[-1] != n:
        raise ValueError("operands must share the polynomial size")
    spec = negacyclic_fft(a) * negacyclic_fft(b)
    return negacyclic_ifft(spec, n)


def negacyclic_convolve_exact(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer negacyclic convolution (int64 / object fallback).

    Schoolbook ``O(N^2)`` via a Toeplitz-style matrix-free formulation:
    compute the full linear convolution then fold with sign flip
    (``X^N = -1``).  Used as the golden reference for the FFT engine and
    for functional bootstraps on small parameters.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.shape[-1]
    if b.shape[-1] != n:
        raise ValueError("operands must share the polynomial size")
    # np.convolve only handles 1-D; support a single batch axis on `a`.
    if a.ndim == 1 and b.ndim == 1:
        full = np.convolve(a.astype(object), b.astype(object))
        out = np.array(full[:n], dtype=object)
        out[: n - 1] -= full[n:]
        return out.astype(object)
    raise ValueError("exact convolution supports 1-D operands only")
