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
from .lwe import LweCiphertext, gaussian_torus_noise
from .polynomial import monomial_mul, poly_add, poly_sub
from .torus import STREAM_BLOCK_BYTES, TORUS_DTYPE, to_torus

__all__ = [
    "GlweSecretKey",
    "GlweCiphertext",
    "glwe_keygen",
    "glwe_encrypt",
    "glwe_encrypt_zeros",
    "glwe_decrypt_phase",
    "glwe_trivial",
    "glwe_add",
    "glwe_sub",
    "glwe_rotate",
    "sample_extract",
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
        """The ``k*N`` LWE key bits matching :func:`sample_extract`.

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


def glwe_encrypt_zeros(
    count: int,
    key: GlweSecretKey,
    rng: np.random.Generator,
    noise_log2: float = -25.0,
) -> np.ndarray:
    """``count`` fresh GLWE encryptions of zero as one ``(count, k+1, N)`` array.

    Draws from ``rng`` in the order ``count`` :func:`glwe_encrypt` calls
    would (mask, then noise, per sample), so a seed yields the same
    ciphertexts; only the key-mask products are batched, one
    ``STREAM_BLOCK_BYTES`` row block at a time against one key spectrum
    and reduced to torus words as they come, so no temporary is larger
    than a block.  This is what makes secure-set key generation cheap: a
    BSK is thousands of zero encryptions plus gadget terms.
    """
    return _encrypt_zeros(count, _key_spectrum(key), rng, noise_log2)


def _encrypt_zeros(
    count: int, spectrum: np.ndarray, rng: np.random.Generator, noise_log2: float
) -> np.ndarray:
    """:func:`glwe_encrypt_zeros` against a prebuilt :func:`_key_spectrum`."""
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


def glwe_encrypt(
    m_poly: np.ndarray,
    key: GlweSecretKey,
    rng: np.random.Generator,
    noise_log2: float = -25.0,
) -> GlweCiphertext:
    """Encrypt a torus polynomial (uint32 numerators of length N)."""
    m = np.asarray(m_poly, dtype=TORUS_DTYPE)
    if m.shape != (key.N,):
        raise ValueError(f"message must have shape ({key.N},)")
    data = np.empty((key.k + 1, key.N), dtype=TORUS_DTYPE)
    data[:-1] = rng.integers(0, 1 << 32, size=(key.k, key.N), dtype=TORUS_DTYPE)
    e = gaussian_torus_noise(rng, noise_log2, shape=(key.N,))
    data[-1] = to_torus(_key_mask_products(data[:-1], _key_spectrum(key))) + m + e
    return GlweCiphertext(data)


def glwe_decrypt_phase(ct: GlweCiphertext, key: GlweSecretKey) -> np.ndarray:
    """Noisy phase ``B - sum A_i S_i`` (message polynomial + noise)."""
    product = _key_mask_products(ct.masks, _key_spectrum(key))
    return (ct.body.astype(np.int64) - product).astype(TORUS_DTYPE)


def glwe_trivial(m_poly: np.ndarray, k: int) -> GlweCiphertext:
    """Noiseless, keyless GLWE encryption (masks = 0)."""
    m = np.asarray(m_poly, dtype=TORUS_DTYPE)
    data = np.zeros((k + 1, m.shape[-1]), dtype=TORUS_DTYPE)
    data[-1] = m
    return GlweCiphertext(data)


def glwe_add(x: GlweCiphertext, y: GlweCiphertext) -> GlweCiphertext:
    """Homomorphic addition."""
    return GlweCiphertext(poly_add(x.data, y.data))


def glwe_sub(x: GlweCiphertext, y: GlweCiphertext) -> GlweCiphertext:
    """Homomorphic subtraction."""
    return GlweCiphertext(poly_sub(x.data, y.data))


def glwe_rotate(ct: GlweCiphertext, t: int) -> GlweCiphertext:
    """Multiply every component polynomial by ``X^t`` (blind-rotation step)."""
    return GlweCiphertext(monomial_mul(ct.data, t))


def sample_extract(ct: GlweCiphertext, coefficient: int = 0) -> LweCiphertext:
    """Extract the LWE encryption of one message coefficient (Algorithm 1, SE).

    Pure data re-grouping: coefficient ``h`` of the phase polynomial equals
    an LWE sample under the flattened key
    :meth:`GlweSecretKey.extracted_lwe_bits`.
    """
    k, n = ct.k, ct.N
    if not 0 <= coefficient < n:
        raise ValueError(f"coefficient index out of range: {coefficient}")
    h = coefficient
    a = np.empty((k, n), dtype=np.int64)
    masks = ct.masks.astype(np.int64)
    for i in range(k):
        # a'_{i,j} = A_i[h-j] for j <= h, and -A_i[N+h-j] for j > h.
        rolled = np.concatenate((masks[i, h::-1], -masks[i, :h:-1]))
        a[i] = rolled
    return LweCiphertext(to_torus(a.reshape(-1)), ct.body[h])


def sample_extract_batch(acc_data: np.ndarray) -> tuple:
    """Constant-coefficient sample extraction for a batch of accumulators.

    ``acc_data`` holds ``B`` GLWE samples as a ``(B, k+1, N)`` torus
    array.  Returns ``(a, b)`` with ``a`` of shape ``(B, k*N)`` and ``b``
    of shape ``(B,)`` - sample ``r``'s LWE extraction at coefficient 0,
    identical to :func:`sample_extract` on each row (uint32 wraparound
    negation replaces the int64 round-trip).
    """
    acc_data = np.asarray(acc_data, dtype=TORUS_DTYPE)
    batch, kp1, n = acc_data.shape
    masks = acc_data[:, : kp1 - 1, :]
    # a'_{i,0} = A_i[0]; a'_{i,j} = -A_i[N-j] for j > 0 (negacyclic fold).
    ext = np.concatenate((masks[..., :1], np.negative(masks[..., :0:-1])), axis=-1)
    return ext.reshape(batch, (kp1 - 1) * n), acc_data[:, kp1 - 1, 0].copy()
