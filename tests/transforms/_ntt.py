"""Number Theoretic Transform over the Goldilocks prime: an exact reference.

The paper's Section III: polynomial multiplication can be accelerated
"using transform-domain methods such as Fast Fourier Transform (FFT) or
Number Theoretic Transform (NTT)".  Morphling picks the FFT, and so does
the library; this NTT is the test oracle's third, *exact* multiplication
engine (``tests/tfhe/_oracle.py::poly_mul(engine="ntt")``), showing the
trade-off the paper weighs: modular arithmetic, zero rounding error.

We work modulo the NTT-friendly prime ``P = 0xFFFFFFFF00000001``
(2^64 - 2^32 + 1, the "Goldilocks" prime): ``P - 1 = 2^32 * (2^32 - 1)``
gives power-of-two roots of unity up to order 2^32, covering every
polynomial size TFHE uses.  Arithmetic runs on Python integers -
simplicity over speed.

Negacyclic multiplication uses the standard root-twisting: with ``psi``
a primitive ``2N``-th root of unity, twist by ``psi^i`` before a cyclic
NTT and untwist after.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = [
    "GOLDILOCKS_PRIME",
    "primitive_root_of_unity",
    "ntt",
    "intt",
    "negacyclic_ntt_multiply",
]

GOLDILOCKS_PRIME = 0xFFFFFFFF00000001
_GENERATOR = 7  # multiplicative generator of the Goldilocks field

_ROOT_CACHE: dict = {}


def _pow_mod(base: int, exp: int, mod: int = GOLDILOCKS_PRIME) -> int:
    return pow(base, exp, mod)


def primitive_root_of_unity(order: int) -> int:
    """A primitive ``order``-th root of unity mod the Goldilocks prime."""
    if order <= 0 or order & (order - 1):
        raise ValueError(f"order must be a power of two, got {order}")
    if order == 1:
        return 1
    if (GOLDILOCKS_PRIME - 1) % order:
        raise ValueError(f"no root of order {order} in the field")
    root = _ROOT_CACHE.get(order)
    if root is None:
        root = _pow_mod(_GENERATOR, (GOLDILOCKS_PRIME - 1) // order)
        # Verify primitivity (defensive: generator choice must be right).
        if _pow_mod(root, order // 2) == 1:
            raise ArithmeticError("root is not primitive")
        _ROOT_CACHE[order] = root
    return root


def _bit_reverse(values: list) -> list:
    n = len(values)
    bits = n.bit_length() - 1
    out = [0] * n
    for i, v in enumerate(values):
        r = int(bin(i)[2:].zfill(bits)[::-1], 2) if bits else 0
        out[r] = v
    return out


def ntt(values: Sequence[int], root: Optional[int] = None) -> list:
    """Forward cyclic NTT of integer coefficients (list of python ints)."""
    values = [int(v) % GOLDILOCKS_PRIME for v in values]
    n = len(values)
    if n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    if n == 1:
        return values
    if root is None:
        root = primitive_root_of_unity(n)
    out = _bit_reverse(values)
    size = 2
    while size <= n:
        w_step = _pow_mod(root, n // size)
        half = size // 2
        for start in range(0, n, size):
            w = 1
            for j in range(half):
                lo = out[start + j]
                hi = out[start + j + half] * w % GOLDILOCKS_PRIME
                out[start + j] = (lo + hi) % GOLDILOCKS_PRIME
                out[start + j + half] = (lo - hi) % GOLDILOCKS_PRIME
                w = w * w_step % GOLDILOCKS_PRIME
        size *= 2
    return out


def intt(values: Sequence[int], root: Optional[int] = None) -> list:
    """Inverse cyclic NTT."""
    n = len(values)
    if root is None:
        root = primitive_root_of_unity(n)
    inv_root = _pow_mod(root, GOLDILOCKS_PRIME - 2)
    out = ntt(values, root=inv_root)
    inv_n = _pow_mod(n, GOLDILOCKS_PRIME - 2)
    return [v * inv_n % GOLDILOCKS_PRIME for v in out]


def _centered(value: int) -> int:
    """Map a field element to its centered representative."""
    if value > GOLDILOCKS_PRIME // 2:
        return value - GOLDILOCKS_PRIME
    return value


def negacyclic_ntt_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact negacyclic product of two integer coefficient vectors.

    Inputs are signed integers (any values whose true negacyclic product
    magnitudes stay below P/2 ~ 2^63); output is an int64 numpy array of
    the exact product in ``Z[X]/(X^N + 1)``.
    """
    a_ints = list(np.asarray(a, dtype=np.int64))
    b_ints = list(np.asarray(b, dtype=np.int64))
    n = len(a_ints)
    if len(b_ints) != n:
        raise ValueError("operands must share the polynomial size")
    if n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    psi = primitive_root_of_unity(2 * n)
    # Twist: a_i * psi^i absorbs the negacyclic wraparound.
    psi_pows = [1] * n
    for i in range(1, n):
        psi_pows[i] = psi_pows[i - 1] * psi % GOLDILOCKS_PRIME
    a_t = [int(x) * p % GOLDILOCKS_PRIME for x, p in zip(a_ints, psi_pows)]
    b_t = [int(x) * p % GOLDILOCKS_PRIME for x, p in zip(b_ints, psi_pows)]
    spec = [
        x * y % GOLDILOCKS_PRIME for x, y in zip(ntt(a_t), ntt(b_t))
    ]
    prod = intt(spec)
    inv_psi = _pow_mod(psi, GOLDILOCKS_PRIME - 2)
    inv_pows = [1] * n
    for i in range(1, n):
        inv_pows[i] = inv_pows[i - 1] * inv_psi % GOLDILOCKS_PRIME
    untwisted = [_centered(x * p % GOLDILOCKS_PRIME) for x, p in zip(prod, inv_pows)]
    return np.array(untwisted, dtype=np.int64)
