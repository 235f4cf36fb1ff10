"""Merge-split FFT: two real-polynomial transforms through one FFT pass.

Polynomial coefficients are real, so an FFT of the packed signal
``z = p + i * r`` carries both transforms; the conjugate-symmetry split

``P[k] = (Z[k] + conj(Z[-k])) / 2``  and  ``R[k] = (Z[k] - conj(Z[-k])) / 2i``

recovers them.  Morphling implements exactly this in hardware (Section
V-A3) with a small Coef buffer, an adder and a shifter, doubling the FFT
unit's effective throughput.  The library only prices it
(``repro/transforms/pipeline_model.py``, ``merge_split=True``); these
functional references check the identity the price relies on, for the
plain (cyclic) FFT - the radix-2 butterflies, the hardware's functional
twin - and for the negacyclic transform the TFHE substrate runs.
"""

import numpy as np

from repro.transforms.negacyclic import negacyclic_fft

from ..tfhe._oracle import negacyclic_ifft
from ._radix2 import fft, ifft


def merged_fft(p, r):
    """FFT of the packed signal ``p + i*r`` (both real, same length)."""
    p = np.asarray(p, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    if p.shape != r.shape:
        raise ValueError("merged polynomials must have identical shapes")
    return fft(p + 1j * r)


def split_spectra(z):
    """Split a merged spectrum into the two real-signal spectra.

    The conjugate-symmetry split: the hardware's Coef-buffer + adder +
    shifter step.
    """
    zr = np.conj(np.roll(z[..., ::-1], 1, axis=-1))
    return (z + zr) / 2, (z - zr) / 2j


def merge_spectra(p_spec, r_spec):
    """Inverse of :func:`split_spectra`: rebuild the packed spectrum."""
    return p_spec + 1j * r_spec


def merged_ifft(p_spec, r_spec):
    """One IFFT pass returning both real signals (inverse merge-split)."""
    z = ifft(merge_spectra(p_spec, r_spec))
    return z.real, z.imag


def negacyclic_fft_pair(p, r):
    """Two real negacyclic polynomials, transformed as one hardware pass.

    The result equals two independent negacyclic transforms; the pairing
    changes only what the hardware model charges, not the math.
    """
    return negacyclic_fft(p), negacyclic_fft(r)


def negacyclic_ifft_pair(p_spec, r_spec, n):
    """Inverse-transform two spectra (one hardware IFFT pass)."""
    return negacyclic_ifft(p_spec, n), negacyclic_ifft(r_spec, n)
