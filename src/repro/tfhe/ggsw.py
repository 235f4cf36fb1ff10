"""GGSW ciphertexts, the external product, and the CMux gate.

A GGSW ciphertext of a plaintext ``m`` is a ``(k+1)*l_b`` stack of GLWE
rows: row ``(i, j)`` encrypts ``-m * S_i * q/beta**(j+1)`` (with ``S_{k}``
read as ``-1``, i.e. the body row carries ``+m * q/beta**(j+1)``).  The
external product ``GGSW boxdot GLWE`` decomposes the GLWE operand and
contracts it against the row stack - the vector-of-polynomials x
matrix-of-polynomials multiplication of the paper's equations (1)-(2).

Two functional engines are provided, mirroring the hardware exactly:

- :func:`external_product` - coefficient-domain reference (per-row
  polynomial products);
- :func:`external_product_transform` - Morphling's datapath: forward
  transforms of the decomposed digits (ACC input), pointwise MACs in the
  transform domain (the VPE array), one inverse transform per output
  polynomial (the Input+Output reuse), with the BSK pre-transformed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from ..transforms.negacyclic import negacyclic_fft, negacyclic_fft_folded
from .decomposition import decompose, decompose_folded
from .glwe import GlweCiphertext, GlweSecretKey, _encrypt_zeros, _key_spectrum
from .polynomial import from_spectrum, poly_mul
from .torus import TORUS_DTYPE, to_torus

__all__ = [
    "GgswCiphertext",
    "ggsw_encrypt",
    "ggsw_encrypt_blocks",
    "external_product",
    "external_product_transform",
    "external_product_spectrum_batch",
    "cmux",
]


@dataclass
class GgswCiphertext:
    """GGSW row stack of shape ``((k+1) * l_b, k+1, N)``.

    ``rows[r]`` is one GLWE ciphertext; ``r = i * l_b + j`` pairs component
    ``i`` (0..k) with decomposition level ``j`` (0..l_b-1).  ``spectrum``
    caches the transform-domain image (computed lazily), which is what the
    Private-A2 buffer holds on chip.
    """

    rows: np.ndarray
    beta_bits: int
    _spectrum: Optional[np.ndarray] = None

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

    def spectrum(self) -> np.ndarray:
        """Transform-domain image of every row polynomial (cached).

        Coefficients are lifted to centered representatives first so the
        float transform stays well-conditioned - this matches the
        pre-computation Morphling does before loading the Private-A2
        buffer.
        """
        if self._spectrum is None:
            # Declared FFT boundary: the centered lift (uint32 read as int32)
            # is cast to float by the transform's fold.
            self._spectrum = negacyclic_fft(self.rows.view(np.int32))
        return self._spectrum


def ggsw_encrypt_blocks(
    ms: Sequence[int],
    key: GlweSecretKey,
    beta_bits: int,
    l_b: int,
    rng: np.random.Generator,
    block: int,
    noise_log2: float = -25.0,
    q_bits: int = 32,
) -> Iterator[np.ndarray]:
    """Encrypt each small integer in ``ms`` as a GGSW, yielding row stacks
    of ``block`` GGSWs at a time (so a whole BSK never exists at once).

    All rows are zero encryptions drawn in GGSW-major, row-minor order -
    the order one :func:`ggsw_encrypt` per plaintext draws in, whatever
    ``block`` is - with the key-mask products batched against one key
    spectrum (:func:`repro.tfhe.glwe.glwe_encrypt_zeros`).
    """
    k, n = key.k, key.N
    plain = np.asarray(ms, dtype=np.int64)
    spectrum = _key_spectrum(key)
    # Gadget term: add m * q/beta**(j+1) to the constant coefficient of
    # component i (row (i,j) of Z + m*G).
    weights = np.array(
        [1 << (q_bits - beta_bits * (j + 1)) for j in range(l_b)], dtype=np.int64
    )
    for start in range(0, plain.size, block):
        chunk = plain[start : start + block]
        rows = _encrypt_zeros(chunk.size * (k + 1) * l_b, spectrum, rng, noise_log2)
        rows = rows.reshape(chunk.size, k + 1, l_b, k + 1, n)
        gadget = to_torus(chunk[:, None] * weights[None, :])
        for i in range(k + 1):
            rows[:, i, :, i, 0] += gadget
        yield rows.reshape(chunk.size, (k + 1) * l_b, k + 1, n)


def ggsw_encrypt(
    m: int,
    key: GlweSecretKey,
    beta_bits: int,
    l_b: int,
    rng: np.random.Generator,
    noise_log2: float = -25.0,
    q_bits: int = 32,
) -> GgswCiphertext:
    """Encrypt a small integer plaintext (typically a key bit) as GGSW."""
    (rows,) = ggsw_encrypt_blocks([m], key, beta_bits, l_b, rng, 1, noise_log2, q_bits)
    return GgswCiphertext(rows[0], beta_bits)


def _decompose_glwe(ct: GlweCiphertext, beta_bits: int, l_b: int) -> np.ndarray:
    """Gadget-decompose all k+1 polynomials: shape ``(k+1, l_b, N)`` int64."""
    return decompose(ct.data, beta_bits, l_b)


def external_product(ggsw: GgswCiphertext, glwe: GlweCiphertext, engine: str = "fft") -> GlweCiphertext:
    """``GGSW boxdot GLWE`` in the coefficient domain (reference engine)."""
    if ggsw.N != glwe.N or ggsw.k != glwe.k:
        raise ValueError("GGSW/GLWE dimensions do not match")
    digits = _decompose_glwe(glwe, ggsw.beta_bits, ggsw.l_b)
    k, l_b, n = ggsw.k, ggsw.l_b, ggsw.N
    acc = np.zeros((k + 1, n), dtype=np.int64)
    for i in range(k + 1):
        for j in range(l_b):
            row = ggsw.rows[i * l_b + j]
            for c in range(k + 1):
                acc[c] += poly_mul(digits[i, j], row[c], engine=engine).astype(np.int64)
    return GlweCiphertext(to_torus(acc))


def external_product_spectrum_batch(
    row_spec: np.ndarray,
    glwe_data: np.ndarray,
    beta_bits: int,
    l_b: int,
) -> np.ndarray:
    """Batched ``GGSW boxdot GLWE`` against a pre-transformed row stack.

    The shared kernel behind every transform-engine external product:

    - ``row_spec``: ``((k+1)*l_b, k+1, N/2)`` complex spectra of one GGSW's
      rows (:meth:`GgswCiphertext.spectrum` or a slice of the eager BSK
      table);
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

    The result is bit-identical for every batch size (the row order is
    fixed and the products, the accumulation and the transforms are
    elementwise along the batch axis).

    Returns ``(B, k+1, N)`` torus data.
    """
    n = glwe_data.shape[-1]
    kp1 = glwe_data.shape[-2]
    folded = decompose_folded(glwe_data, beta_bits, l_b)
    digit_spec = negacyclic_fft_folded(folded)  # (B, k+1, l_b, N/2)
    d = digit_spec.reshape(-1, kp1 * l_b, 1, n // 2)
    # The VPE pointwise MACs in POLY-ACC-REG order: one GGSW row after the
    # other, so no temporary outgrows the accumulator (a one-shot multiply
    # + reduce needs a (rows x outputs) one and is slower inside the loop).
    acc_spec = d[:, 0] * row_spec[0]  # (B, k+1, N/2)
    for r in range(1, kp1 * l_b):
        acc_spec += d[:, r] * row_spec[r]
    return from_spectrum(acc_spec, n)


def external_product_transform(ggsw: GgswCiphertext, glwe: GlweCiphertext) -> GlweCiphertext:
    """``GGSW boxdot GLWE`` via Morphling's transform-domain datapath.

    Forward-transform the ``(k+1)*l_b`` decomposed digits once (Input
    reuse), accumulate all pointwise products per output component in the
    transform domain (Output reuse - the POLY-ACC-REG), then inverse
    transform each of the ``k+1`` outputs exactly once.  Runs as a
    batch-of-one through :func:`external_product_spectrum_batch` so the
    scalar and batched paths share one kernel.
    """
    if ggsw.N != glwe.N or ggsw.k != glwe.k:
        raise ValueError("GGSW/GLWE dimensions do not match")
    out = external_product_spectrum_batch(
        ggsw.spectrum(), glwe.data[None], ggsw.beta_bits, ggsw.l_b
    )
    return GlweCiphertext(out[0])


def cmux(
    ggsw_bit: GgswCiphertext,
    ct_false: GlweCiphertext,
    ct_true: GlweCiphertext,
    engine: str = "transform",
) -> GlweCiphertext:
    """Homomorphic multiplexer: returns ``ct_true`` if the GGSW bit is 1.

    ``CMux(b, c0, c1) = b boxdot (c1 - c0) + c0`` - the body of the blind
    rotation's per-iteration update (Algorithm 1, line 4).
    """
    diff = GlweCiphertext(ct_true.data - ct_false.data)
    if engine == "transform":
        prod = external_product_transform(ggsw_bit, diff)
    else:
        prod = external_product(ggsw_bit, diff, engine=engine)
    return GlweCiphertext(prod.data + ct_false.data)
