"""Counted FFT entry points and the radix-2 reference engine.

:func:`fft` / :func:`ifft` are the only transform entry points the rest
of the repo calls: they count every transform (so telemetry is identical
on every engine) and dispatch to the active compute backend
(:mod:`repro.transforms.backends`).  The production backend, ``numpy``,
is numpy's pocketfft.

The rest of this module is the ``radix2`` backend: an iterative radix-2
decimation-in-time FFT implemented directly (no ``numpy.fft``),
vectorized with numpy.  It is kept for two jobs, neither of which is
speed: it is the *reference oracle* the fast engines are tested against,
and it is the functional twin of Morphling's pipelined FFT hardware -
its ``log2(n)`` butterfly stages with per-stage twiddle factors mirror
the multi-delay-commutator pipeline modelled in
:mod:`repro.transforms.pipeline_model`.

The butterfly engine is allocation-lean: one bit-reversal gather produces
the working array, every stage then updates it in place through a single
reused scratch buffer (the product ``odd * twiddle``), and the twiddle
tables are cached per length.  Total allocation per transform is the output plus ``n/2``
scratch elements, independent of the stage count.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from ..observability import REGISTRY as _METRICS
from .backends import active_backend as _active_backend

__all__ = [
    "bit_reverse_permutation",
    "fft",
    "ifft",
    "fft_stage_count",
    "fft_complex_multiplies",
    "fft_real_multiplies",
]

_PERM_CACHE: Dict[int, np.ndarray] = {}
_TWIDDLE_CACHE: Dict[int, List[np.ndarray]] = {}

_FFT_CALLS = _METRICS.counter(
    "transforms_fft_total", "FFT passes executed, by direction (batch-aware)"
)
_FFT_POINTS = _METRICS.histogram(
    "transforms_fft_points", "Distribution of FFT transform lengths"
)


def _count_transforms(shape: Tuple[int, ...], direction: str) -> None:
    """Account one batched FFT call: ``prod(shape[:-1])`` transforms."""
    count = math.prod(shape[:-1])
    _FFT_CALLS.inc(count, direction=direction)
    _FFT_POINTS.observe(shape[-1], count=count)


def bit_reverse_permutation(n: int) -> np.ndarray:
    """Return the bit-reversal permutation for a power-of-two length ``n``."""
    if n <= 0 or n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    perm = _PERM_CACHE.get(n)
    if perm is None:
        bits = n.bit_length() - 1
        idx = np.arange(n, dtype=np.int64)
        perm = np.zeros(n, dtype=np.int64)
        for _ in range(bits):
            perm = (perm << 1) | (idx & 1)
            idx >>= 1
        _PERM_CACHE[n] = perm
    return perm


def _stage_twiddles(n: int) -> List[np.ndarray]:
    """Twiddle factors per butterfly stage for an ``n``-point DIT FFT (cached)."""
    tw = _TWIDDLE_CACHE.get(n)
    if tw is None:
        tw = []
        size = 2
        while size <= n:
            half = size // 2
            tw.append(np.exp(-2j * np.pi * np.arange(half) / size))
            size *= 2
        _TWIDDLE_CACHE[n] = tw
    return tw


def _fft_core(x: np.ndarray) -> np.ndarray:
    """Uninstrumented butterfly engine shared by :func:`fft` and :func:`ifft`.

    The bit-reversal gather is the only full-size allocation; butterflies
    run in place with one reused ``n/2``-element scratch per batch row
    (``t = odd * tw``, then ``odd <- even - t`` and ``even <- even + t``).
    """
    n = x.shape[-1]
    if n == 1:
        return x.copy()
    # take() copies into a C-contiguous array; `x[..., perm]` would hand
    # back a transposed layout that slows every later consumer.
    out = np.take(x, bit_reverse_permutation(n), axis=-1)
    batch_shape = x.shape[:-1]
    scratch = np.empty(batch_shape + (n // 2,), dtype=out.dtype)
    for stage, tw in enumerate(_stage_twiddles(n)):
        size = 2 << stage
        half = size // 2
        blocks = out.reshape(batch_shape + (n // size, size))
        even = blocks[..., :half]
        odd = blocks[..., half:]
        t = scratch.reshape(batch_shape + (n // size, half))
        np.multiply(odd, tw, out=t)
        np.subtract(even, t, out=odd)  # odd slot := even - odd*tw
        even += t  # even slot := even + odd*tw
    return out


def _ifft_core(x: np.ndarray) -> np.ndarray:
    """Uninstrumented inverse engine: conjugate trick over :func:`_fft_core`."""
    n = x.shape[-1]
    out = _fft_core(np.conj(x))
    np.conj(out, out=out)
    out /= n
    return out


def fft(x: np.ndarray) -> np.ndarray:
    """Forward FFT of a complex vector (or batch of vectors on axis -1).

    Accepts any shape; the transform runs along the last axis, which
    must be a power of two; the transform runs in ``complex128``.

    Dispatches to the active compute backend
    (:mod:`repro.transforms.backends`): pocketfft under the default
    ``numpy`` backend, this module's butterfly engine under ``radix2``.
    Metric counting happens here, before dispatch, so every backend is
    accounted identically.
    """
    x = np.asarray(x, dtype=np.complex128)
    if _METRICS.enabled:
        _count_transforms(x.shape, "forward")
    return _active_backend().fft(x)


def ifft(x: np.ndarray) -> np.ndarray:
    """Inverse FFT along the last axis (unitary pairing with :func:`fft`).

    Dispatches to the active compute backend, like :func:`fft`.
    """
    x = np.asarray(x, dtype=np.complex128)
    if _METRICS.enabled:
        _count_transforms(x.shape, "inverse")
    return _active_backend().ifft(x)


# ---------------------------------------------------------------------------
# Operation accounting (used by repro.experiments.fig1)
# ---------------------------------------------------------------------------
def fft_stage_count(n: int) -> int:
    """Number of butterfly stages in an ``n``-point radix-2 FFT."""
    if n <= 0 or n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    return int(math.log2(n))


def fft_complex_multiplies(n: int) -> int:
    """Complex multiplications in an ``n``-point radix-2 FFT: (n/2)*log2(n)."""
    return (n // 2) * fft_stage_count(n)


def fft_real_multiplies(n: int) -> int:
    """Real multiplications, counting one complex multiply as four."""
    return 4 * fft_complex_multiplies(n)
