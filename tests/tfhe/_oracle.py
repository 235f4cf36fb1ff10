"""Reference engines the library's kernels are tested against.

The per-CMux reference bootstrap (the batch pipeline's oracle), the
gather key-mask product (keygen's transform-domain product's oracle) and
the two reference negacyclic convolutions (the transforms' oracles).
"""

import numpy as np

from repro.tfhe import (
    cmux,
    glwe_rotate,
    glwe_trivial,
    key_switch,
    modulus_switch,
    sample_extract,
)
from repro.transforms.negacyclic import negacyclic_fft, negacyclic_ifft


def reference_bootstrap(ct, test_poly, keyset, engine):
    """MS -> BR -> SE -> KS, one scalar CMux per non-zero digit.

    ``engine`` is :func:`repro.tfhe.cmux`'s: ``"transform"``, ``"fft"``
    (per-product transforms) or ``"exact"`` (O(N^2) integer reference).
    Each CMux reads its GGSW's coefficient rows recovered from the table.
    """
    params = keyset.params
    a_tilde, b_tilde = modulus_switch(ct, params.N)
    acc = glwe_rotate(glwe_trivial(test_poly, params.k), -b_tilde)
    for i in range(params.n):
        t = int(a_tilde[i])
        if t:
            acc = cmux(keyset.bsk_ggsw(i), acc, glwe_rotate(acc, t), engine=engine)
    return key_switch(sample_extract(acc, 0), keyset.ksk)


def key_mask_product(masks, key):
    """Exact ``sum_i A_i * S_i`` with binary ``S_i`` (int64, negacyclic).

    Vectorized over the key's one-bits: the negacyclic shift by ``j`` is
    the window ``[n-j, 2n-j)`` of ``concat(-a, a)``, so all shifts of one
    mask become a single gather + sum.  Bit-identical to the per-shift
    loop (exact integer sums in a different order).
    """
    n = masks.shape[-1]
    acc = np.zeros(n, dtype=np.int64)
    a64 = masks.astype(np.int64)
    base = np.arange(n, dtype=np.int64)
    for i in range(key.k):
        ones = np.nonzero(key.polys[i])[0]
        if ones.size == 0:
            continue
        ext = np.concatenate((-a64[i], a64[i]))
        idx = (n - ones)[:, None] + base[None, :]
        acc += ext[idx].sum(axis=0)
    return acc


def negacyclic_convolve_fft(a, b):
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


def negacyclic_convolve_exact(a, b):
    """Exact integer negacyclic convolution (int64 / object fallback).

    Schoolbook ``O(N^2)`` via a Toeplitz-style matrix-free formulation:
    compute the full linear convolution then fold with sign flip
    (``X^N = -1``).  The golden reference for the FFT and NTT engines.
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
