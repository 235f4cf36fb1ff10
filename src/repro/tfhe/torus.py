"""Discretized-torus arithmetic.

TFHE ciphertext elements live on the torus ``T = R/Z``, implemented as the
discretized torus ``T_q = {0, 1/q, ..., (q-1)/q}`` with ``q = 2**32``
(Section II-A).  We represent torus elements by their numerators: unsigned
integers modulo ``q`` held in ``numpy.uint32`` arrays, so addition and
scalar multiplication are native wrapping integer ops.

All helpers here are dtype-strict: they accept/return ``uint32`` (or int64
intermediaries) and centralize the rounding/lifting conventions the rest of
the scheme relies on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, SupportsInt

import numpy as np

from ..params import Q_BITS

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

__all__ = [
    "TORUS_DTYPE",
    "u32",
    "Q_BITS",
    "Q",
    "STREAM_BLOCK_BYTES",
    "to_torus",
    "to_double",
    "to_signed",
    "encode_message",
    "decode_message",
    "round_to_multiple",
    "torus_scalar_mul",
    "torus_dot",
    "modswitch",
]

TORUS_DTYPE = np.uint32
Q = 1 << Q_BITS

#: Byte budget of one streamed temporary.  Key generation and the BSK
#: pre-transform walk their multi-megabyte arrays in blocks this large, so
#: peak memory is the resident key material plus about this much: a freed
#: full-size temporary raises glibc's mmap threshold and strands later
#: arrays on the heap (docs/perf.md, "Allocation discipline").
STREAM_BLOCK_BYTES = 1 << 21


def u32(value: SupportsInt) -> np.uint32:
    """Reduce a python/numpy scalar into ``T_q`` without overflow warnings."""
    return TORUS_DTYPE(int(value) & 0xFFFFFFFF)


def to_torus(values: ArrayLike) -> np.ndarray:
    """Reduce arbitrary integers into ``T_q`` numerators (uint32)."""
    arr = np.asarray(values)
    return (arr.astype(np.int64) & (Q - 1)).astype(TORUS_DTYPE)


def to_double(t: ArrayLike) -> np.ndarray:
    """Torus numerators -> real representatives in [0, 1)."""
    return np.asarray(t, dtype=np.float64) / Q


def to_signed(t: ArrayLike) -> np.ndarray:
    """Lift torus numerators to centered representatives in [-q/2, q/2)."""
    return np.asarray(t, dtype=TORUS_DTYPE).astype(np.int32).astype(np.int64)


def encode_message(m: ArrayLike, p: int) -> np.ndarray:
    """Encode plaintext(s) ``m`` from ``Z_p`` into the torus: ``m * q/p``.

    ``p`` is the plaintext modulus (message space size); it must divide
    ``q`` evenly for exact encoding, i.e. be a power of two <= ``q``.
    """
    if p <= 0 or p & (p - 1):
        raise ValueError(f"plaintext modulus must be a power of two, got {p}")
    if p > Q:
        raise ValueError("plaintext modulus exceeds ciphertext modulus")
    scale = Q // p
    return to_torus(np.asarray(m, dtype=np.int64) * scale)


def decode_message(t: ArrayLike, p: int) -> np.ndarray:
    """Decode noisy torus numerators back to ``Z_p`` by nearest-multiple rounding."""
    if p <= 0 or p & (p - 1):
        raise ValueError(f"plaintext modulus must be a power of two, got {p}")
    scale = Q // p
    t64 = np.asarray(t, dtype=np.uint32).astype(np.int64)
    return ((t64 + scale // 2) // scale) % p


def round_to_multiple(t: ArrayLike, scale: int) -> np.ndarray:
    """Round torus numerators to the nearest multiple of ``scale`` (mod q)."""
    t64 = np.asarray(t, dtype=np.uint32).astype(np.int64)
    return to_torus((t64 + scale // 2) // scale * scale)


def torus_scalar_mul(scalar: ArrayLike, t: ArrayLike) -> np.ndarray:
    """Multiply torus elements by (signed or unsigned) integers, wrapping."""
    s = np.asarray(scalar, dtype=np.int64).astype(np.uint64)
    t64 = np.asarray(t, TORUS_DTYPE).astype(np.uint64)
    return ((s * t64) & np.uint64(Q - 1)).astype(TORUS_DTYPE)


def torus_dot(a: ArrayLike, b: ArrayLike, axis: int = -1) -> np.ndarray:
    """Wrapping dot product of torus numerators along ``axis``.

    Products and the accumulation wrap modulo ``2**64`` before the final
    reduction into ``T_q`` - the mod-q MAC-tree arithmetic every LWE
    phase computation uses.  Inputs broadcast like ``a * b``.
    """
    prod = np.multiply(
        np.asarray(a, TORUS_DTYPE), np.asarray(b, TORUS_DTYPE), dtype=np.uint64
    )
    return (prod.sum(axis=axis) & np.uint64(Q - 1)).astype(TORUS_DTYPE)


def modswitch(t: ArrayLike, new_modulus: int) -> np.ndarray:
    """Switch torus numerators from modulus ``q`` to ``new_modulus``.

    Computes ``round(new_modulus * t / q) mod new_modulus`` - the paper's
    MS step with ``new_modulus = 2N`` (Algorithm 1, line 1).
    """
    if new_modulus <= 0:
        raise ValueError("new modulus must be positive")
    t64 = np.asarray(t, dtype=np.uint32).astype(np.int64)
    return ((t64 * new_modulus + Q // 2) // Q) % new_modulus
