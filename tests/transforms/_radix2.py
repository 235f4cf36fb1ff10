"""The radix-2 butterfly FFT: the oracle the production engine is tested against.

An iterative radix-2 decimation-in-time FFT implemented directly (no
``numpy.fft``), vectorized with numpy.  Speed is not its job: it is the
*reference oracle* pocketfft is certified against, and the functional
twin of Morphling's pipelined FFT hardware - its ``log2(n)`` butterfly
stages with per-stage twiddle factors mirror the multi-delay-commutator
pipeline priced in ``repro/transforms/pipeline_model.py``.

The engine is allocation-lean: one bit-reversal gather produces the
working array, every stage then updates it in place through a single
reused scratch buffer (the product ``odd * twiddle``), and the twiddle
tables are cached per length.  Total allocation per transform is the
output plus ``n/2`` scratch elements, independent of the stage count.

:func:`radix2_engine` binds it into :mod:`repro.transforms.negacyclic`
for the duration of a ``with`` block, so whole bootstraps run on it.
"""

from contextlib import contextmanager, nullcontext

import numpy as np

from repro.transforms import negacyclic

#: The engines a differential test runs on; ``radix2`` is the oracle.
ENGINES = ("radix2", "numpy")

_PERM_CACHE = {}
_TWIDDLE_CACHE = {}


def bit_reverse_permutation(n):
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


def stage_twiddles(n):
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


def fft(x):
    """Forward FFT along the last axis (batched over leading axes).

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
    for stage, tw in enumerate(stage_twiddles(n)):
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


def ifft(x):
    """Inverse FFT along the last axis: the conjugate trick over :func:`fft`."""
    n = x.shape[-1]
    out = fft(np.conj(x))
    np.conj(out, out=out)
    out /= n
    return out


@contextmanager
def radix2_engine():
    """Run every negacyclic transform on the butterflies inside the block."""
    saved = negacyclic._fft, negacyclic._ifft
    negacyclic._fft, negacyclic._ifft = fft, ifft
    try:
        yield
    finally:
        negacyclic._fft, negacyclic._ifft = saved


def transform_engine(name):
    """:func:`radix2_engine` for ``"radix2"``; pocketfft as bound for ``"numpy"``."""
    if name not in ENGINES:
        raise ValueError(f"unknown engine {name!r}")
    return radix2_engine() if name == "radix2" else nullcontext()
