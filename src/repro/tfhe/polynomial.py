"""Negacyclic torus-polynomial kernels of the blind rotation.

GLWE/GGSW ciphertexts are vectors/matrices of polynomials in
``T_q[X]/(X^N + 1)``.  Coefficients are torus numerators (uint32); the ring
is negacyclic: ``X^N = -1``.  The library multiplies polynomials one way,
in the transform domain (:func:`repro.tfhe.ggsw.external_product_spectrum_batch`);
this module holds the two ring kernels around that product:

- :func:`monomial_rotate_batch` - multiplication by monomials ``X^t``
  (the rotation at the heart of blind rotation; ``t`` ranges over
  ``Z_{2N}`` and wrapping past ``N`` flips signs);
- :func:`from_spectrum` - an accumulated spectrum back to torus words.

Both are batched: arrays may carry leading axes, the polynomial axis is
last.
"""

from __future__ import annotations

import math

import numpy as np

from ..transforms.negacyclic import negacyclic_ifft_folded
from .torus import TORUS_DTYPE

__all__ = [
    "monomial_rotate_batch",
    "from_spectrum",
]


def monomial_rotate_batch(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per-row monomial multiply ``X^{t} * p`` with a vector of exponents.

    ``p`` has shape ``(..., N)``; ``t`` is an integer array broadcastable
    to ``p.shape[:-1]`` with entries taken modulo ``2N``.  Against the
    signed extension ``ext = concat(p, -p, p)`` (index ``>= N`` reads the
    ``X^N = -1`` wraparound) the rotation is one contiguous read per row:
    ``out = ext[s : s + N]`` with ``s = -t mod 2N``.  Rows along whose
    trailing axes ``t`` has length 1 share an exponent and are copied as
    one 2-D slice: ``(B, k+1, N)`` accumulators with per-sample ``(B, 1)``
    exponents take ``B`` copies.  This is the batched double-pointer
    rotator: every VPE row reads the same accumulator layout at its own
    offset - no per-coefficient index is ever built.
    """
    p = np.asarray(p, dtype=TORUS_DTYPE)
    t = np.asarray(t, dtype=np.int64)
    n, rows = p.shape[-1], p.shape[:-1]
    dims = (1,) * (len(rows) - t.ndim) + t.shape
    split = len(dims)  # rows[split:] share one exponent
    while split and dims[split - 1] == 1:
        split -= 1
    exps = t.reshape(dims[:split])
    if exps.shape != rows[:split]:
        exps = np.broadcast_to(exps, rows[:split])  # ValueError if it cannot
    groups = (exps.size, math.prod(rows[split:]))
    ext = np.concatenate((p, np.negative(p), p), axis=-1).reshape(groups + (3 * n,))
    out = np.empty(p.shape, dtype=TORUS_DTYPE)
    out_groups = out.reshape(groups + (n,))
    for g, e in enumerate(exps.reshape(-1).tolist()):
        s = -e & (2 * n - 1)
        out_groups[g] = ext[g, :, s : s + n]
    return out


def from_spectrum(spectrum: np.ndarray, n: int) -> np.ndarray:
    """Round an accumulated spectrum back to torus numerators.

    The rounding is fused into the unfold: the real and imaginary parts of
    the folded inverse transform are rounded (half to even) straight into
    the low and high coefficient halves, and the int64 -> uint32 cast is
    the reduction modulo ``q``.
    """
    folded = negacyclic_ifft_folded(spectrum, n)
    half = n // 2
    coeffs = np.empty(folded.shape[:-1] + (n,), dtype=np.int64)
    np.rint(folded.real, out=coeffs[..., :half], casting="unsafe")
    np.rint(folded.imag, out=coeffs[..., half:], casting="unsafe")
    return coeffs.astype(TORUS_DTYPE)

