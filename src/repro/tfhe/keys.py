"""Key material: secret keys, bootstrapping key (BSK), key-switching key (KSK).

The BSK is ``n`` GGSW encryptions of the LWE key bits under the GLWE key
(Section II-A); the KSK is ``k*N x l_k`` LWE encryptions of the scaled
extracted-GLWE key bits under the original LWE key.  ``KeySet`` bundles
everything a server needs to bootstrap (no secret material beyond what the
scheme itself publishes as evaluation keys).  Like Morphling's Private-A2
buffer, a keyset holds the BSK only in the transform domain: keygen
streams each block of GGSWs straight into the spectrum table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..params import TFHEParams
from ..transforms.negacyclic import negacyclic_fft_folded
from .ggsw import GgswCiphertext, ggsw_encrypt_blocks
from .glwe import GlweSecretKey, glwe_keygen
from .lwe import LweSecretKey, gaussian_torus_noise, lwe_keygen
from .polynomial import from_spectrum
from .torus import Q_BITS, STREAM_BLOCK_BYTES, TORUS_DTYPE, to_torus, torus_dot

__all__ = ["KeySwitchingKey", "KeySet", "generate_keyset", "make_ksk", "transform_bsk"]


@dataclass
class KeySwitchingKey:
    """KSK from an input LWE key of dimension ``m`` to an output key of dimension ``n``.

    ``masks`` has shape ``(m, l_k, n)`` and ``bodies`` shape ``(m, l_k)``:
    entry ``(i, j)`` is the LWE encryption of
    ``in_bit_i * q / beta_ks**(j+1)`` under the output key.
    """

    masks: np.ndarray
    bodies: np.ndarray
    beta_ks_bits: int

    def __post_init__(self) -> None:
        self.masks = np.asarray(self.masks, dtype=TORUS_DTYPE)
        self.bodies = np.asarray(self.bodies, dtype=TORUS_DTYPE)
        if self.masks.ndim != 3 or self.bodies.shape != self.masks.shape[:2]:
            raise ValueError("inconsistent KSK shapes")
        bits, terms = self.beta_ks_bits * self.l_k, self.in_dimension * self.l_k
        if bits > Q_BITS:
            raise ValueError(f"beta_ks_bits * l_k = {bits} exceeds the {Q_BITS}-bit modulus")
        # key_switch_batch contracts in float64: |digit| <= beta_ks/2 times
        # centred 32-bit key words, summed over every term, must stay exact.
        if terms << (self.beta_ks_bits + Q_BITS - 2) >= 1 << 53:
            raise ValueError(
                f"in_dimension * l_k = {terms} terms of beta_ks_bits = "
                f"{self.beta_ks_bits} are too many for an exact float64 key switch"
            )

    @property
    def in_dimension(self) -> int:
        return self.masks.shape[0]

    @property
    def l_k(self) -> int:
        return self.masks.shape[1]

    @property
    def out_dimension(self) -> int:
        return self.masks.shape[2]


def make_ksk(
    in_bits: np.ndarray,
    out_key: LweSecretKey,
    beta_ks_bits: int,
    l_k: int,
    rng: np.random.Generator,
    noise_log2: float = -15.0,
) -> KeySwitchingKey:
    """Build a key-switching key from ``in_bits`` to ``out_key``.

    The masks are drawn at their resident width (the 32-bit draw consumes
    the RNG exactly as the 64-bit one did) and dotted with the key one
    ``STREAM_BLOCK_BYTES`` row block at a time, so the 64-bit products
    never reach the KSK's size.
    """
    in_bits = np.asarray(in_bits, dtype=np.int64)
    m = in_bits.shape[0]
    n = out_key.n
    masks = rng.integers(0, 1 << 32, size=(m, l_k, n), dtype=TORUS_DTYPE)
    noise = gaussian_torus_noise(rng, noise_log2, shape=(m, l_k))
    mask_dot = np.empty((m, l_k), dtype=TORUS_DTYPE)
    block = max(1, STREAM_BLOCK_BYTES // (8 * l_k * n))
    for start in range(0, m, block):
        mask_dot[start : start + block] = torus_dot(masks[start : start + block], out_key.bits)
    weights = np.array(
        [1 << (Q_BITS - beta_ks_bits * (j + 1)) for j in range(l_k)], dtype=np.int64
    )
    plain = to_torus(in_bits[:, None] * weights[None, :])
    bodies = (mask_dot + plain + noise).astype(TORUS_DTYPE)
    return KeySwitchingKey(masks, bodies, beta_ks_bits)


def _table_block(params: TFHEParams) -> int:
    """GGSWs per ``STREAM_BLOCK_BYTES`` of folded complex128 input (32 on set I)."""
    return max(1, STREAM_BLOCK_BYTES // (8 * (params.k + 1) ** 2 * params.l_b * params.N))


def _fill_table(params: TFHEParams, blocks: Iterable[np.ndarray]) -> np.ndarray:
    """Fold and transform GGSW row blocks, in key order, into one table.

    Filling a preallocated table keeps it C-ordered (the per-step MAC
    relies on that) whatever layout the transform hands back.
    """
    half = params.N // 2
    table = np.empty((params.n, (params.k + 1) * params.l_b, params.k + 1, half), np.complex128)
    start = 0
    for rows in blocks:
        # Declared FFT boundary: the centered lift (uint32 read as int32) is
        # folded straight into the transform input.
        centered = rows.view(np.int32)
        folded = np.empty(centered.shape[:-1] + (half,), dtype=np.complex128)
        folded.real = centered[..., :half]
        folded.imag = centered[..., half:]
        table[start : start + len(rows)] = negacyclic_fft_folded(folded)
        start += len(rows)
    return table


def transform_bsk(params: TFHEParams, rows: np.ndarray) -> np.ndarray:
    """Spectrum table of a coefficient-domain BSK ``(n, (k+1)*l_b, k+1, N)``.

    Streamed in the blocks keygen uses, so a BSK loaded from an archive
    gets the table its keygen built, word for word.
    """
    block = _table_block(params)
    return _fill_table(params, (rows[s : s + block] for s in range(0, len(rows), block)))


@dataclass
class KeySet:
    """Everything needed to evaluate bootstrapping on a server.

    ``lwe_key``/``glwe_key`` are the client's secret keys - kept here so
    tests and examples can decrypt, never consumed by the evaluation path.
    ``bsk_table`` is the only form of the BSK a keyset holds: the
    ``(n, (k+1)*l_b, k+1, N/2)`` complex128 spectra of every GGSW row, the
    software analogue of the pre-loaded Private-A2 buffer.
    """

    params: TFHEParams
    lwe_key: LweSecretKey
    glwe_key: GlweSecretKey
    bsk_table: np.ndarray
    ksk: KeySwitchingKey

    def __post_init__(self) -> None:
        p = self.params
        expected_shape = (p.n, (p.k + 1) * p.l_b, p.k + 1, p.N // 2)
        table = np.asarray(self.bsk_table)
        if table.shape != expected_shape:
            raise ValueError(f"spectrum table shape {table.shape} != expected {expected_shape}")
        if table.dtype != np.complex128:
            raise ValueError(f"spectrum table dtype {table.dtype} != expected complex128")
        if not table.flags.c_contiguous:  # the per-step MAC reads key rows in order
            raise ValueError("spectrum table must be C-contiguous")
        self.bsk_table = table

    def bsk_spectrum_table(self, precision: str = "double") -> np.ndarray:
        """:attr:`bsk_table`; any ``precision`` other than ``"double"`` raises.

        Kept only for the repo benchmark's ``bsk_spectrum_table("double")``
        calls (``benchmarks/e2e/pbs.py``); ROADMAP item 1(b) re-points them
        at :attr:`bsk_table` and deletes this method.
        """
        if precision != "double":
            raise ValueError(f"the BSK table is complex128 only, got precision {precision!r}")
        return self.bsk_table

    def bsk_ggsw(self, i: int) -> GgswCiphertext:
        """BSK entry ``i``'s coefficient rows, recovered exactly from its table row.

        The inverse of a complex128 spectrum of centered 32-bit words lands
        within ~2**-18 of each integer, far inside the 1/2 rounding margin
        (docs/perf.md).  Serialization and reference paths read rows here;
        nothing caches them.
        """
        p = self.params
        return GgswCiphertext(from_spectrum(self.bsk_table[i], p.N), p.beta_bits)


def generate_keyset(params: TFHEParams, rng: np.random.Generator) -> KeySet:
    """Generate the full TFHE key material for ``params``.

    The BSK encrypts each LWE key bit ``s_i`` as a GGSW under the GLWE
    key, one table block at a time, each transformed into the table as it
    comes: no coefficient-domain BSK ever exists whole.  The KSK switches
    the extracted ``k*N``-dimension key back down to the ``n``-dimension one.
    """
    lwe_key = lwe_keygen(params.n, rng)
    glwe_key = glwe_keygen(params.k, params.N, rng)
    table = _fill_table(params, ggsw_encrypt_blocks(
        lwe_key.bits, glwe_key, params.beta_bits, params.l_b, rng, _table_block(params),
        noise_log2=params.glwe_noise_log2,
    ))
    ksk = make_ksk(
        glwe_key.extracted_lwe_bits(), lwe_key,
        params.beta_ks_bits, params.l_k, rng,
        noise_log2=params.lwe_noise_log2,
    )
    return KeySet(params, lwe_key, glwe_key, table, ksk)
