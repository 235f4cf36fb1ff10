"""Message encoding for programmable bootstrapping.

TFHE encodes ``Z_p`` messages at multiples of ``q/p`` on the torus.  The
programmable bootstrap evaluates a lookup table stored in the test
polynomial; the negacyclic ring makes the evaluated function
*anti-periodic* (``f(x + p/2) = -f(x)``), so usable message space keeps a
padding bit: plain messages live in ``[0, p/2)``.

Helpers here build test polynomials from lookup tables and provide the
signed fixed-point encoding (offset binary) the NN applications use.
"""

from __future__ import annotations

import numpy as np

from ..params import TFHEParams
from .torus import encode_message

__all__ = [
    "extend_lut_antiperiodic",
    "make_test_polynomial",
    "identity_test_polynomial",
    "signed_to_message",
    "message_to_signed",
]


def extend_lut_antiperiodic(lut_half: np.ndarray, p: int) -> np.ndarray:
    """Extend a LUT defined on ``[0, p/2)`` to all of ``Z_p`` anti-periodically.

    The negacyclic ring forces ``f(m + p/2) = -f(m)``; any programmable
    bootstrap implicitly evaluates this extension, so we build it
    explicitly (values returned as signed integers mod p).
    """
    lut_half = np.asarray(lut_half, dtype=np.int64)
    if lut_half.shape != (p // 2,):
        raise ValueError(f"LUT must cover [0, p/2): expected {p // 2} entries")
    return np.concatenate((lut_half, -lut_half))


def make_test_polynomial(lut_half: np.ndarray, params: TFHEParams, p: int) -> np.ndarray:
    """Build the test polynomial (TP) encoding ``f`` for message modulus ``p``.

    Coefficient ``j`` of TP holds ``encode(f_full(round(j * p / 2N)))`` so
    that after blind rotation by the switched phase ``mu ~ m * 2N/p`` the
    constant coefficient is ``encode(f(m))`` whenever the accumulated noise
    stays below half a window (``N/p``).
    """
    n2 = 2 * params.N
    if p > n2:
        raise ValueError(f"message modulus {p} exceeds 2N = {n2}")
    full = extend_lut_antiperiodic(lut_half, p)
    j = np.arange(params.N)
    buckets = ((j * p + n2 // 2) // n2) % p
    return encode_message(full[buckets] % p, p)


def identity_test_polynomial(params: TFHEParams, p: int) -> np.ndarray:
    """Test polynomial for ``f(m) = m`` (pure noise-refresh bootstrap)."""
    return make_test_polynomial(np.arange(p // 2, dtype=np.int64), params, p)


def signed_to_message(value: int, p: int) -> int:
    """Offset-binary encode a signed value in ``[-p/4, p/4)`` into ``[0, p/2)``.

    Keeps the padding bit clear so single-bootstrap LUTs (ReLU,
    comparisons) stay valid.
    """
    lo, hi = -(p // 4), p // 4
    if not lo <= value < hi:
        raise ValueError(f"signed value {value} outside [{lo}, {hi})")
    return value + p // 4


def message_to_signed(message: int, p: int) -> int:
    """Inverse of :func:`signed_to_message`."""
    if not 0 <= message < p // 2:
        raise ValueError(f"message {message} outside [0, p/2)")
    return message - p // 4
