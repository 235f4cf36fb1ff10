"""Negacyclic torus-polynomial ring operations.

GLWE/GGSW ciphertexts are vectors/matrices of polynomials in
``T_q[X]/(X^N + 1)``.  Coefficients are torus numerators (uint32); the ring
is negacyclic: ``X^N = -1``.  This module implements the ring ops used by
the scheme:

- wrapping add/sub/neg,
- monomial multiplication ``X^t * p`` (the rotation at the heart of blind
  rotation; ``t`` ranges over ``Z_{2N}`` and wrapping past ``N`` flips
  signs),
- full polynomial multiplication with two interchangeable engines:

  * ``"fft"`` - the negacyclic twisted FFT from
    :mod:`repro.transforms.negacyclic` with rounding, matching what both
    Concrete and Morphling's datapath compute (float rounding shows up as
    a tiny additive noise, exactly as in the real systems);
  * ``"exact"`` - int64 schoolbook negacyclic convolution, exact whenever
    one operand is gadget-decomposed (coefficients bounded by ``beta/2``),
    which is the only place full products appear in TFHE.

Every function is batched: arrays may carry leading axes, the polynomial
axis is last.
"""

from __future__ import annotations

import numpy as np

from ..transforms.negacyclic import negacyclic_fft, negacyclic_ifft, negacyclic_ifft_folded
from .torus import TORUS_DTYPE, to_torus

__all__ = [
    "zeros",
    "poly_add",
    "poly_sub",
    "poly_neg",
    "monomial_mul",
    "monomial_rotate_batch",
    "poly_mul",
    "poly_mul_spectrum",
    "to_spectrum",
    "from_spectrum",
    "MUL_ENGINES",
]

MUL_ENGINES = ("fft", "exact", "ntt")


def zeros(shape) -> np.ndarray:
    """Zero polynomial(s) with the given shape (last axis = N)."""
    return np.zeros(shape, dtype=TORUS_DTYPE)


def poly_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficient-wise wrapping addition."""
    return (np.asarray(a, TORUS_DTYPE) + np.asarray(b, TORUS_DTYPE)).astype(TORUS_DTYPE)


def poly_sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficient-wise wrapping subtraction."""
    return (np.asarray(a, TORUS_DTYPE) - np.asarray(b, TORUS_DTYPE)).astype(TORUS_DTYPE)


def poly_neg(a: np.ndarray) -> np.ndarray:
    """Coefficient-wise negation."""
    return (-np.asarray(a, TORUS_DTYPE)).astype(TORUS_DTYPE)


def monomial_mul(p: np.ndarray, t: int) -> np.ndarray:
    """Multiply polynomial(s) by the monomial ``X^t`` in the negacyclic ring.

    ``t`` is taken modulo ``2N``; a shift past the degree boundary wraps
    with a sign flip (``X^N = -1``).  This is the operation the
    double-pointer rotator in the Private-A1 buffer performs (Section V-C).
    """
    p = np.asarray(p, dtype=TORUS_DTYPE)
    n = p.shape[-1]
    t = int(t) % (2 * n)
    negate_all = t >= n
    shift = t % n
    if shift == 0:
        out = p.copy()
    else:
        rolled = np.roll(p, shift, axis=-1)
        rolled[..., :shift] = (-rolled[..., :shift].astype(np.int64)).astype(TORUS_DTYPE)
        out = rolled
    if negate_all:
        out = (-out.astype(np.int64)).astype(TORUS_DTYPE)
    return out


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


def _centered_int64(p: np.ndarray) -> np.ndarray:
    """Lift uint32 coefficients to centered int64 representatives."""
    return np.asarray(p, TORUS_DTYPE).astype(np.int32).astype(np.int64)


def _exact_negacyclic_int64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact int64 negacyclic convolution for batched operands.

    Safe when ``max|a| * max|b| * N < 2**62``; callers guarantee ``a`` is a
    small decomposed operand.  Vectorized over leading axes by building the
    full linear convolution with einsum-free shifting.
    """
    n = a.shape[-1]
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
    a64 = np.asarray(a, dtype=np.int64)
    b64 = np.asarray(b, dtype=np.int64)
    # result[j] = sum_{i<=j} a[i] b[j-i] - sum_{i>j} a[i] b[N+j-i]
    for i in range(n):
        ai = a64[..., i : i + 1]
        if i == 0:
            out += ai * b64
            continue
        out[..., i:] += ai * b64[..., :-i]
        out[..., :i] -= ai * b64[..., n - i :]
    return out


def poly_mul(a_signed: np.ndarray, b_torus: np.ndarray, engine: str = "fft") -> np.ndarray:
    """Negacyclic product of a small signed-integer polynomial and a torus polynomial.

    ``a_signed`` holds small centered integers (gadget-decomposed digits);
    ``b_torus`` holds uint32 torus numerators.  Returns uint32 numerators.
    """
    if engine not in MUL_ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {MUL_ENGINES}")
    a = np.asarray(a_signed, dtype=np.int64)
    b = _centered_int64(b_torus)
    if engine == "exact":
        return to_torus(_exact_negacyclic_int64(a, b))
    if engine == "ntt":
        from ..transforms.ntt import negacyclic_ntt_multiply

        broadcast = np.broadcast_shapes(a.shape, b.shape)
        a_b = np.broadcast_to(a, broadcast).reshape(-1, broadcast[-1])
        b_b = np.broadcast_to(b, broadcast).reshape(-1, broadcast[-1])
        rows = [negacyclic_ntt_multiply(x, y) for x, y in zip(a_b, b_b)]
        return to_torus(np.stack(rows).reshape(broadcast))
    prod = negacyclic_ifft(
        # repro: allow[RPR002] declared FFT boundary: the "fft" engine models the
        # float datapath (rounding appears as additive noise, as in hardware)
        negacyclic_fft(a.astype(np.float64)) * negacyclic_fft(b.astype(np.float64)),
        a.shape[-1],
    )
    return to_torus(np.round(prod).astype(np.int64))


def to_spectrum(p_signed: np.ndarray) -> np.ndarray:
    """Forward negacyclic transform of centered integer coefficients."""
    return negacyclic_fft(np.asarray(p_signed, dtype=np.float64))


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


def poly_mul_spectrum(a_spec: np.ndarray, b_spec: np.ndarray) -> np.ndarray:
    """Pointwise transform-domain product (what one VPE computes per cycle)."""
    return a_spec * b_spec
