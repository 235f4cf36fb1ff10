"""Negacyclic torus-polynomial kernels of the blind rotation.

GLWE/GGSW ciphertexts are vectors/matrices of polynomials in
``T_q[X]/(X^N + 1)``.  Coefficients are torus numerators (uint32); the ring
is negacyclic: ``X^N = -1``.  The library multiplies polynomials one way,
in the transform domain (:func:`repro.tfhe.ggsw.external_product_spectrum_batch`);
this module holds the two ring kernels around that product:

- :func:`rotate_rows` - multiplication by monomials ``X^t`` (the
  rotation at the heart of blind rotation; ``t`` ranges over ``Z_{2N}``
  and wrapping past ``N`` flips signs), with
  :func:`monomial_rotate_batch` its broadcasting front-end;
- :func:`from_spectrum` - an accumulated spectrum back to torus words.

Both are batched: arrays may carry leading axes, the polynomial axis is
last.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..transforms.negacyclic import negacyclic_ifft_folded
from .torus import TORUS_DTYPE

__all__ = [
    "rotate_rows",
    "monomial_rotate_batch",
    "from_spectrum",
]


def rotate_rows(p: np.ndarray, offsets: Sequence[int]) -> np.ndarray:
    """The rotation kernel: row group ``g`` of ``p`` read at ``offsets[g]``.

    ``p`` has shape ``(G, R, N)``; ``offsets`` holds ``G`` Python ints in
    ``[0, 2N)``.  Against the signed extension ``ext = concat(p, -p, p)``
    (index ``>= N`` reads the ``X^N = -1`` wraparound) group ``g`` is one
    contiguous ``(R, N)`` read, ``out[g] = ext[g, :, s : s + N]``, which is
    ``X^{-s} * p[g]``.  This is the batched double-pointer rotator: every
    VPE row reads the same accumulator layout at its own offset - no
    per-coefficient index is ever built.  The blind rotation calls it once
    per step with offsets it computed once per call; everything else goes
    through :func:`monomial_rotate_batch`.
    """
    n = p.shape[-1]
    ext = np.concatenate((p, np.negative(p), p), axis=-1)
    out = np.empty(p.shape, dtype=p.dtype)
    for g, s in enumerate(offsets):
        out[g] = ext[g, :, s : s + n]
    return out


def monomial_rotate_batch(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per-row monomial multiply ``X^{t} * p`` with a vector of exponents.

    ``p`` has shape ``(..., N)``; ``t`` is an integer array broadcastable
    to ``p.shape[:-1]`` with entries taken modulo ``2N``.  The broadcasting
    front-end of :func:`rotate_rows`: rows along whose trailing axes ``t``
    has length 1 share an exponent and form one group (``(B, k+1, N)``
    accumulators with per-sample ``(B, 1)`` exponents are ``B`` groups of
    ``k+1`` rows), and each group's read offset is ``s = -t mod 2N``.
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
    groups = (exps.size, math.prod(rows[split:]), n)
    offsets = (-exps & (2 * n - 1)).reshape(-1).tolist()
    return rotate_rows(p.reshape(groups), offsets).reshape(p.shape)


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

