"""GLWE ciphertexts: polynomial-message encryption.

A GLWE ciphertext of ``M(x)`` under ``S = (S_1..S_k)`` (binary polynomials)
is ``(A_1..A_k, B)`` with ``B = sum A_i * S_i + M + E`` in the negacyclic
ring (Section II-A).  We store the ``k`` masks and the body in one
``(k+1, N)`` uint32 array - the paper's ACC ciphertext layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..transforms.negacyclic import negacyclic_fft, negacyclic_fft_folded, negacyclic_ifft_folded
from .lwe import gaussian_torus_noise
from .torus import STREAM_BLOCK_BYTES, TORUS_DTYPE, to_torus

__all__ = [
    "GlweSecretKey",
    "GlweCiphertext",
    "glwe_keygen",
    "glwe_decrypt_phase",
    "sample_extract_batch",
]


@dataclass(frozen=True)
class GlweSecretKey:
    """GLWE secret key: ``k`` binary polynomials of size ``N``."""

    polys: np.ndarray

    def __post_init__(self) -> None:
        polys = np.asarray(self.polys)
        if polys.ndim != 2:
            raise ValueError("GLWE key must have shape (k, N)")
        if not np.all((polys == 0) | (polys == 1)):
            raise ValueError("GLWE key coefficients must be 0/1")
        object.__setattr__(self, "polys", polys.astype(np.int64))

    @property
    def k(self) -> int:
        return self.polys.shape[0]

    @property
    def N(self) -> int:
        return self.polys.shape[1]

    def extracted_lwe_bits(self) -> np.ndarray:
        """The ``k*N`` LWE key bits matching :func:`sample_extract_batch`.

        Extracting the constant coefficient of a GLWE phase turns the
        polynomial key into a flat LWE key whose bits are the key
        coefficients in natural order.
        """
        return self.polys.reshape(-1).copy()


@dataclass
class GlweCiphertext:
    """A GLWE sample stored as a ``(k+1, N)`` array: rows 0..k-1 = masks, row k = body."""

    data: np.ndarray

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=TORUS_DTYPE)
        if self.data.ndim != 2:
            raise ValueError("GLWE ciphertext must have shape (k+1, N)")

    @property
    def k(self) -> int:
        return self.data.shape[0] - 1

    @property
    def N(self) -> int:
        return self.data.shape[1]

    @property
    def masks(self) -> np.ndarray:
        return self.data[:-1]

    @property
    def body(self) -> np.ndarray:
        return self.data[-1]

    def copy(self) -> "GlweCiphertext":
        return GlweCiphertext(self.data.copy())


def glwe_keygen(k: int, N: int, rng: np.random.Generator) -> GlweSecretKey:
    """Sample ``k`` uniform binary key polynomials."""
    return GlweSecretKey(rng.integers(0, 2, size=(k, N), dtype=np.int64))


def _key_spectrum(key: GlweSecretKey) -> np.ndarray:
    """The key's ``(k, N/2)`` negacyclic spectrum: transformed once, reused for every mask.

    :func:`_key_mask_products` rounds float64 limb products, so a key too
    large for that rounding to be exact is refused here.  With ``L = N/2``
    and float64's FFT error constant ``eta ~ 2**-50``, Higham's L2 bound
    over the two forward transforms, the product with a key spectrum of
    modulus ``<= N`` and the inverse puts every coefficient of a product
    of ``2**16``-bounded limbs within ``6*sqrt(2)*log2(L)*eta*k*L**1.5*2**16``
    of its integer.  With ``k*L**1.5 <= (k*N/2)**1.5`` that stays below
    1/4 while ``k*N <= 2**17`` (measured worst case, all-ones key and
    all-0xFFFF limbs: 2**-20.4 at ``k*N = 2**14``).
    """
    if key.k * key.N > 1 << 17:
        raise ValueError(
            f"k*N = {key.k * key.N} is too large for an exact key-mask product"
        )
    return negacyclic_fft(key.polys)


def _key_mask_products(masks: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """Exact ``sum_i A_i * S_i`` (int64, negacyclic) for ``(..., k, N)`` uint32 masks.

    ``spectrum`` is the key's :func:`_key_spectrum`.  Each mask word is
    split into two 16-bit limbs; a limb is folded straight into the
    transform input, multiplied by the key spectrum, summed over the ``k``
    components and brought back by one inverse transform whose rounding
    is exact, so the result is ``lo + (hi << 16)``.  One folded buffer
    serves both limbs and every temporary is about the masks' size:
    callers pass row blocks, not a whole key.
    """
    n = masks.shape[-1]
    half = n // 2
    folded = np.empty(masks.shape[:-1] + (half,), dtype=np.complex128)
    products = []
    for limb, arg in ((np.right_shift, 16), (np.bitwise_and, 0xFFFF)):
        # Declared FFT boundary: each limb is written straight into the fold.
        limb(masks[..., :half], arg, out=folded.real, casting="unsafe")
        limb(masks[..., half:], arg, out=folded.imag, casting="unsafe")
        spec = negacyclic_fft_folded(folded)
        spec *= spectrum
        acc = spec[..., 0, :]
        for i in range(1, spectrum.shape[0]):
            acc += spec[..., i, :]
        back = negacyclic_ifft_folded(acc, n)
        products.append(np.rint(back, out=back))
    # The rounded limb products are integers below k*N*2**16 <= 2**33, so
    # hi * 2**16 + lo stays below 2**50: exact in float64.
    hi, lo = products
    hi *= 1 << 16
    hi += lo
    out = np.empty(masks.shape[:-2] + (n,), dtype=np.int64)
    out[..., :half] = hi.real
    out[..., half:] = hi.imag
    return out


def _encrypt_zeros(
    count: int, spectrum: np.ndarray, rng: np.random.Generator, noise_log2: float
) -> np.ndarray:
    """``count`` fresh GLWE encryptions of zero as one ``(count, k+1, N)`` array.

    ``spectrum`` is the key's :func:`_key_spectrum`.  Draws from ``rng``
    sample by sample (mask, then noise); only the key-mask products are
    batched, one ``STREAM_BLOCK_BYTES`` row block at a time, and reduced
    to torus words as they come, so no temporary is larger than a block.
    This is what makes secure-set key generation cheap: a BSK is
    thousands of zero encryptions plus gadget terms.
    """
    k, n = spectrum.shape[0], 2 * spectrum.shape[1]
    data = np.empty((count, k + 1, n), dtype=TORUS_DTYPE)
    block = max(1, STREAM_BLOCK_BYTES // (8 * k * n))
    for start in range(0, count, block):
        rows = data[start : start + block]
        for row in rows:
            row[:-1] = rng.integers(0, 1 << 32, size=(k, n), dtype=TORUS_DTYPE)
            row[-1] = gaussian_torus_noise(rng, noise_log2, shape=(n,))
        rows[:, -1] += to_torus(_key_mask_products(rows[:, :-1], spectrum))
    return data


def glwe_decrypt_phase(ct: GlweCiphertext, key: GlweSecretKey) -> np.ndarray:
    """Noisy phase ``B - sum A_i S_i`` (message polynomial + noise)."""
    product = _key_mask_products(ct.masks, _key_spectrum(key))
    return (ct.body.astype(np.int64) - product).astype(TORUS_DTYPE)


def sample_extract_batch(acc_data: np.ndarray) -> tuple:
    """Constant-coefficient sample extraction for a batch of accumulators.

    ``acc_data`` holds ``B`` GLWE samples as a ``(B, k+1, N)`` torus
    array.  Returns ``(a, b)`` with ``a`` of shape ``(B, k*N)`` and ``b``
    of shape ``(B,)`` - sample ``r``'s LWE extraction at coefficient 0:
    coefficient 0 of the phase polynomial is an LWE sample under the
    flattened key :meth:`GlweSecretKey.extracted_lwe_bits` (Algorithm 1,
    SE; pure data re-grouping).
    """
    acc_data = np.asarray(acc_data, dtype=TORUS_DTYPE)
    batch, kp1, n = acc_data.shape
    masks = acc_data[:, : kp1 - 1, :]
    # a'_{i,0} = A_i[0]; a'_{i,j} = -A_i[N-j] for j > 0 (negacyclic fold).
    ext = np.concatenate((masks[..., :1], np.negative(masks[..., :0:-1])), axis=-1)
    return ext.reshape(batch, (kp1 - 1) * n), acc_data[:, kp1 - 1, 0].copy()
