"""Key material: secret keys, bootstrapping key (BSK), key-switching key (KSK).

The BSK is ``n`` GGSW encryptions of the LWE key bits under the GLWE key
(Section II-A); the KSK is ``k*N x l_k`` LWE encryptions of the scaled
extracted-GLWE key bits under the original LWE key.  ``KeySet`` bundles
everything a server needs to bootstrap (no secret material beyond what the
scheme itself publishes as evaluation keys).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from ..params import TFHEParams
from ..transforms.negacyclic import negacyclic_fft_folded
from .ggsw import ggsw_encrypt_batch
from .glwe import GlweSecretKey, glwe_keygen
from .lwe import LweSecretKey, gaussian_torus_noise, lwe_keygen
from .torus import Q_BITS, STREAM_BLOCK_BYTES, TORUS_DTYPE, to_torus, torus_dot

__all__ = ["KeySwitchingKey", "KeySet", "generate_keyset", "make_ksk"]


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
    q_bits: int = 32,
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
        [1 << (q_bits - beta_ks_bits * (j + 1)) for j in range(l_k)], dtype=np.int64
    )
    plain = to_torus(in_bits[:, None] * weights[None, :])
    bodies = (mask_dot + plain + noise).astype(TORUS_DTYPE)
    return KeySwitchingKey(masks, bodies, beta_ks_bits)


@dataclass
class KeySet:
    """Everything needed to evaluate bootstrapping on a server.

    ``lwe_key``/``glwe_key`` are the client's secret keys - kept here so
    tests and examples can decrypt, never consumed by the evaluation path.
    """

    params: TFHEParams
    lwe_key: LweSecretKey
    glwe_key: GlweSecretKey
    bsk: list
    ksk: KeySwitchingKey
    _bsk_tables: Dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    def bsk_spectrum_table(self, precision: str = "double") -> np.ndarray:
        """Eagerly transform the whole BSK, block-streamed (cached).

        Returns a ``(n, (k+1)*l_b, k+1, N/2)`` complex array: the
        transform-domain image of every GGSW row of every BSK entry - the
        software analogue of pre-loading the Private-A2 buffer once
        instead of transforming each GGSW lazily on first touch.  The
        table is filled ``STREAM_BLOCK_BYTES`` of folded input at a time
        (32 GGSWs on set I), as the hardware streams BSK rows from HBM, so
        building it costs the table plus two blocks, not two tables.

        ``precision`` selects ``"double"`` (``complex128``, the default,
        bit-compatible with the lazy per-GGSW spectra) or ``"single"``
        (``complex64``, half the memory and a faster MAC; adds rounding
        noise that must be validated against the noise envelope - see
        docs/perf.md).
        """
        if precision not in ("double", "single"):
            raise ValueError(
                f"precision must be 'double' or 'single', got {precision!r}"
            )
        table = self._bsk_tables.get(precision)
        if table is None:
            # The "single" table is a declared reduced-precision mode; its
            # rounding error is validated against the noise envelope.
            cdtype = np.complex128 if precision == "double" else np.complex64
            ggsw_shape = self.bsk[0].rows.shape  # ((k+1)*l_b, k+1, N)
            half = ggsw_shape[-1] // 2
            # Filling a preallocated table keeps it C-ordered (the per-step
            # MAC and pool workers mapping it rely on that) whatever the
            # backend hands back.
            table = np.empty((len(self.bsk),) + ggsw_shape[:-1] + (half,), dtype=cdtype)
            # Clamped to the key: a toy BSK is smaller than one block.
            block = min(len(self.bsk), max(1, STREAM_BLOCK_BYTES // table[0].nbytes))
            folded = np.empty((block,) + table.shape[1:], dtype=cdtype)
            for start in range(0, len(self.bsk), block):
                ggsws = self.bsk[start : start + block]
                for dst, g in zip(folded, ggsws):
                    # Declared FFT boundary: the centered lift (uint32 read
                    # as int32) is folded straight into the transform input.
                    centered = g.rows.view(np.int32)
                    dst.real = centered[..., :half]
                    dst.imag = centered[..., half:]
                table[start : start + block] = negacyclic_fft_folded(folded[: len(ggsws)])
            self._bsk_tables[precision] = table
        return table

    def adopt_spectrum_table(self, table: np.ndarray, precision: str = "double") -> np.ndarray:
        """Install an externally computed BSK spectrum table into the cache.

        This is how pool workers map the driver's shared-memory table
        zero-copy instead of re-running the FFT-heavy pre-transform:
        after :meth:`adopt_spectrum_table`, :meth:`bsk_spectrum_table`
        returns ``table`` directly.  Shape and dtype are validated
        against ``params`` so a mismatched segment fails loudly.
        """
        if precision not in ("double", "single"):
            raise ValueError(
                f"precision must be 'double' or 'single', got {precision!r}"
            )
        p = self.params
        expected_shape = (p.n, (p.k + 1) * p.l_b, p.k + 1, p.N // 2)
        expected_dtype = np.complex128 if precision == "double" else np.complex64
        table = np.asarray(table)
        if table.shape != expected_shape:
            raise ValueError(
                f"spectrum table shape {table.shape} != expected {expected_shape}"
            )
        if table.dtype != np.dtype(expected_dtype):
            raise ValueError(
                f"spectrum table dtype {table.dtype} != expected "
                f"{np.dtype(expected_dtype)} for precision {precision!r}"
            )
        if not table.flags.c_contiguous:
            raise ValueError(
                "spectrum table must be C-contiguous (the per-step MAC reads "
                "one key row after the other)"
            )
        self._bsk_tables[precision] = table
        return table

    def drop_spectrum_cache(self) -> None:
        """Release every cached transform-domain image.

        Clears the eager per-precision tables *and* the lazy per-GGSW
        spectra, so the next :meth:`bsk_spectrum_table` or
        ``GgswCiphertext.spectrum`` call recomputes from the
        coefficient-domain BSK.  Pool workers call this right after fork,
        before mapping the shared segment, so the only transform-domain
        image a worker holds is the shared one.
        """
        self._bsk_tables.clear()
        for g in self.bsk:
            g._spectrum = None


def generate_keyset(params: TFHEParams, rng: np.random.Generator) -> KeySet:
    """Generate the full TFHE key material for ``params``.

    The BSK encrypts each LWE key bit ``s_i`` as a GGSW under the GLWE
    key; the KSK switches the extracted ``k*N``-dimension key back down to
    the original ``n``-dimension LWE key.
    """
    lwe_key = lwe_keygen(params.n, rng)
    glwe_key = glwe_keygen(params.k, params.N, rng)
    bsk = ggsw_encrypt_batch(
        lwe_key.bits, glwe_key, params.beta_bits, params.l_b, rng,
        noise_log2=params.glwe_noise_log2, q_bits=params.q_bits,
    )
    ksk = make_ksk(
        glwe_key.extracted_lwe_bits(), lwe_key,
        params.beta_ks_bits, params.l_k, rng,
        noise_log2=params.lwe_noise_log2, q_bits=params.q_bits,
    )
    return KeySet(params, lwe_key, glwe_key, bsk, ksk)
