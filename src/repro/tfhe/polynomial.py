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

from typing import Sequence, Union

import numpy as np

from ..transforms.negacyclic import negacyclic_ifft_folded
from .torus import TORUS_DTYPE

__all__ = [
    "zeros",
    "monomial_rotate_batch",
    "from_spectrum",
]


def zeros(shape: Union[int, Sequence[int]]) -> np.ndarray:
    """Zero polynomial(s) with the given shape (last axis = N)."""
    return np.zeros(shape, dtype=TORUS_DTYPE)


def monomial_rotate_batch(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per-row monomial multiply ``X^{t} * p`` with a vector of exponents.

    ``p`` has shape ``(..., N)``; ``t`` is an integer array broadcastable
    to ``p.shape[:-1]`` with entries taken modulo ``2N``.  Against the
    signed extension ``ext = concat(p, -p, p)`` (index ``>= N`` reads the
    ``X^N = -1`` wraparound) the rotation is one contiguous read per row:
    ``out = ext[s : s + N]`` with ``s = -t mod 2N``.  This is the batched
    double-pointer rotator: every VPE row reads the same accumulator
    layout at its own offset - no per-coefficient index is ever built.
    """
    p = np.asarray(p, dtype=TORUS_DTYPE)
    n = p.shape[-1]
    ext = np.concatenate((p, np.negative(p), p), axis=-1).reshape(-1, 3 * n)
    starts = np.zeros(p.shape[:-1], dtype=np.int64)
    starts -= t  # broadcasts t over the rows that share an exponent
    starts &= 2 * n - 1
    out = np.empty_like(p)
    rows = out.reshape(-1, n)
    for r, s in enumerate(starts.reshape(-1).tolist()):
        rows[r] = ext[r, s : s + n]
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

