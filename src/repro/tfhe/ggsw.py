"""GGSW ciphertexts and the transform-domain external product.

A GGSW ciphertext of a plaintext ``m`` is a ``(k+1)*l_b`` stack of GLWE
rows: row ``(i, j)`` encrypts ``-m * S_i * q/beta**(j+1)`` (with ``S_{k}``
read as ``-1``, i.e. the body row carries ``+m * q/beta**(j+1)``).  The
external product ``GGSW boxdot GLWE`` decomposes the GLWE operand and
contracts it against the row stack - the vector-of-polynomials x
matrix-of-polynomials multiplication of the paper's equations (1)-(2).

The library computes it one way, as Morphling's datapath does
(:func:`external_product_spectrum_batch`): forward transforms of the
decomposed digits (ACC input), pointwise MACs in the transform domain
(the VPE array) against the pre-transformed BSK, one inverse transform
per output polynomial (the Input+Output reuse).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..transforms.negacyclic import negacyclic_fft_folded
from .decomposition import decompose_folded
from .glwe import GlweSecretKey, _encrypt_zeros, _key_spectrum
from .polynomial import from_spectrum
from .torus import Q_BITS, TORUS_DTYPE, to_torus

__all__ = [
    "GgswCiphertext",
    "ggsw_encrypt_blocks",
    "external_product_spectrum_batch",
]

#: Largest temporary of the one-shot spectrum MAC (multiply + reduce);
#: larger ones take the row loop.  From the crossovers measured on sets
#: I, II, III, C and the toy set (docs/perf.md, lever ledger).
MAC_ONE_SHOT_BYTES = 256 * 1024


@dataclass
class GgswCiphertext:
    """GGSW row stack of shape ``((k+1) * l_b, k+1, N)``.

    ``rows[r]`` is one GLWE ciphertext; ``r = i * l_b + j`` pairs component
    ``i`` (0..k) with decomposition level ``j`` (0..l_b-1).  The
    transform-domain image the Private-A2 buffer holds on chip is the
    keyset's table (:attr:`repro.tfhe.keys.KeySet.bsk_table`).
    """

    rows: np.ndarray
    beta_bits: int

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=TORUS_DTYPE)
        if self.rows.ndim != 3:
            raise ValueError("GGSW rows must have shape ((k+1)*l_b, k+1, N)")

    @property
    def k(self) -> int:
        return self.rows.shape[1] - 1

    @property
    def l_b(self) -> int:
        return self.rows.shape[0] // (self.k + 1)

    @property
    def N(self) -> int:
        return self.rows.shape[2]


def ggsw_encrypt_blocks(
    ms: Sequence[int],
    key: GlweSecretKey,
    beta_bits: int,
    l_b: int,
    rng: np.random.Generator,
    block: int,
    noise_log2: float = -25.0,
) -> Iterator[np.ndarray]:
    """Encrypt each small integer in ``ms`` as a GGSW, yielding row stacks
    of ``block`` GGSWs at a time (so a whole BSK never exists at once).

    All rows are zero encryptions drawn in GGSW-major, row-minor order -
    the same draws whatever ``block`` is - with the key-mask products
    batched against one key spectrum (:func:`repro.tfhe.glwe._encrypt_zeros`).
    """
    k, n = key.k, key.N
    plain = np.asarray(ms, dtype=np.int64)
    spectrum = _key_spectrum(key)
    # Gadget term: add m * q/beta**(j+1) to the constant coefficient of
    # component i (row (i,j) of Z + m*G).
    weights = np.array(
        [1 << (Q_BITS - beta_bits * (j + 1)) for j in range(l_b)], dtype=np.int64
    )
    for start in range(0, plain.size, block):
        chunk = plain[start : start + block]
        rows = _encrypt_zeros(chunk.size * (k + 1) * l_b, spectrum, rng, noise_log2)
        rows = rows.reshape(chunk.size, k + 1, l_b, k + 1, n)
        gadget = to_torus(chunk[:, None] * weights[None, :])
        for i in range(k + 1):
            rows[:, i, :, i, 0] += gadget
        yield rows.reshape(chunk.size, (k + 1) * l_b, k + 1, n)


def external_product_spectrum_batch(
    row_spec: np.ndarray,
    glwe_data: np.ndarray,
    beta_bits: int,
    l_b: int,
) -> np.ndarray:
    """Batched ``GGSW boxdot GLWE`` against a pre-transformed row stack.

    The library's one external product (the blind rotation's CMux body):

    - ``row_spec``: ``((k+1)*l_b, k+1, N/2)`` complex spectra of one GGSW's
      rows (one entry of :attr:`repro.tfhe.keys.KeySet.bsk_table`);
    - ``glwe_data``: ``(B, k+1, N)`` torus data of ``B`` independent GLWE
      accumulators sharing that GGSW - the software analogue of one BSK
      row fanned across the VPE-array rows.

    One pass: the carry-free decomposition writes the ``B*(k+1)*l_b``
    digit polynomials straight into the folded FFT input
    (:func:`repro.tfhe.decomposition.decompose_folded`), one batched
    forward transform covers them all (Input reuse), the ``(k+1)*l_b``
    row products accumulate one after the other per frequency bin (the VPE
    pointwise MACs with Output reuse in the POLY-ACC-REG), and one batched
    inverse transform with the rounding fused into its unfold produces all
    ``B*(k+1)`` outputs.

    The MAC has two layouts, picked by the size of the one-shot multiply's
    temporary (``B * (k+1)*l_b * (k+1) * N/2`` complex128):

    - at most ``MAC_ONE_SHOT_BYTES``: one broadcast multiply of every digit
      spectrum by every row, then ``np.add.reduce`` over the row axis -
      two numpy calls, where a narrow batch's step is dispatch-bound;
    - above it: a loop over the GGSW rows, each adding its product into the
      ``(B, k+1, N/2)`` accumulator, so no temporary outgrows it (the big
      temporary costs more in cache misses than the loop in calls).

    Both add the products in row order, element by element, so the result
    is the same for either layout and bit-identical for every batch size
    (the products, the accumulation and the transforms are elementwise
    along the batch axis).

    Returns ``(B, k+1, N)`` torus data.
    """
    n = glwe_data.shape[-1]
    kp1 = glwe_data.shape[-2]
    folded = decompose_folded(glwe_data, beta_bits, l_b)
    digit_spec = negacyclic_fft_folded(folded)  # (B, k+1, l_b, N/2)
    d = digit_spec.reshape(-1, kp1 * l_b, 1, n // 2)
    if d.shape[0] * row_spec.nbytes <= MAC_ONE_SHOT_BYTES:
        acc_spec = np.add.reduce(d * row_spec, axis=1)  # (B, k+1, N/2)
    else:
        acc_spec = d[:, 0] * row_spec[0]
        for r in range(1, kp1 * l_b):
            acc_spec += d[:, r] * row_spec[r]
    return from_spectrum(acc_spec, n)
