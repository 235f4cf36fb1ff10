"""Reference engines the library's kernels are tested against.

The library computes each operation one way: the external product in the
transform domain against the pre-transformed BSK table, rotations as one
batched read, keygen's key-mask product through one key spectrum.  The
coefficient-domain references here are what those kernels are checked
against:

- ring ops: zero polynomials, wrapping add/sub/neg, the scalar monomial
  multiply, and
  ``poly_mul`` with three engines - ``"fft"`` (the float twisted
  transform, rounded), ``"exact"`` (int64 schoolbook) and ``"ntt"``
  (Goldilocks-prime NTT, ``tests/transforms/_ntt.py``);
- the decomposition's recomposition and its error bound;
- scalar GLWE encryption, trivial ciphertexts, add/sub/rotate and sample
  extraction at any coefficient;
- scalar GGSW encryption, its spectrum, the per-row external product,
  the one-GGSW transform-domain external product and CMux;
- the per-CMux reference blind rotation and bootstrap (the batch
  pipeline's oracles), the gather key-mask product (keygen's oracle) and
  the unrounded inverse negacyclic transform and the two reference
  negacyclic convolutions (the transforms' oracles).
"""

import numpy as np

from repro.tfhe import key_switch, modulus_switch
from repro.tfhe.decomposition import decompose
from repro.tfhe.ggsw import GgswCiphertext, external_product_spectrum_batch, ggsw_encrypt_blocks
from repro.tfhe.glwe import GlweCiphertext, _encrypt_zeros, _key_mask_products, _key_spectrum
from repro.tfhe.lwe import LweCiphertext, gaussian_torus_noise
from repro.tfhe.torus import Q_BITS, TORUS_DTYPE, to_torus
from repro.transforms.negacyclic import negacyclic_fft, negacyclic_ifft_folded

MUL_ENGINES = ("fft", "exact", "ntt")


# ---------------------------------------------------------------------------
# Ring operations
# ---------------------------------------------------------------------------
def zeros(shape):
    """Zero polynomial(s) with the given shape (last axis = N)."""
    return np.zeros(shape, dtype=TORUS_DTYPE)


def poly_add(a, b):
    """Coefficient-wise wrapping addition."""
    return (np.asarray(a, TORUS_DTYPE) + np.asarray(b, TORUS_DTYPE)).astype(TORUS_DTYPE)


def poly_sub(a, b):
    """Coefficient-wise wrapping subtraction."""
    return (np.asarray(a, TORUS_DTYPE) - np.asarray(b, TORUS_DTYPE)).astype(TORUS_DTYPE)


def poly_neg(a):
    """Coefficient-wise negation."""
    return (-np.asarray(a, TORUS_DTYPE)).astype(TORUS_DTYPE)


def monomial_mul(p, t):
    """Multiply polynomial(s) by the monomial ``X^t`` in the negacyclic ring.

    ``t`` is taken modulo ``2N``; a shift past the degree boundary wraps
    with a sign flip (``X^N = -1``).  The scalar twin of
    :func:`repro.tfhe.polynomial.monomial_rotate_batch`.
    """
    p = np.asarray(p, dtype=TORUS_DTYPE)
    n = p.shape[-1]
    t = int(t) % (2 * n)
    negate_all = t >= n
    shift = t % n
    if shift == 0:
        out = p.copy()
    else:
        rolled = np.roll(p, shift, axis=-1)
        rolled[..., :shift] = (-rolled[..., :shift].astype(np.int64)).astype(TORUS_DTYPE)
        out = rolled
    if negate_all:
        out = (-out.astype(np.int64)).astype(TORUS_DTYPE)
    return out


def _exact_negacyclic_int64(a, b):
    """Exact int64 negacyclic convolution for batched operands.

    Safe when ``max|a| * max|b| * N < 2**62``; callers pass a small
    decomposed operand as ``a``.
    """
    n = a.shape[-1]
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
    a64 = np.asarray(a, dtype=np.int64)
    b64 = np.asarray(b, dtype=np.int64)
    # result[j] = sum_{i<=j} a[i] b[j-i] - sum_{i>j} a[i] b[N+j-i]
    for i in range(n):
        ai = a64[..., i : i + 1]
        if i == 0:
            out += ai * b64
            continue
        out[..., i:] += ai * b64[..., :-i]
        out[..., :i] -= ai * b64[..., n - i :]
    return out


def poly_mul(a_signed, b_torus, engine="fft"):
    """Negacyclic product of a small signed-integer polynomial and a torus polynomial.

    ``a_signed`` holds small centered integers (gadget-decomposed digits);
    ``b_torus`` holds uint32 torus numerators.  Returns uint32 numerators.
    """
    if engine not in MUL_ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {MUL_ENGINES}")
    a = np.asarray(a_signed, dtype=np.int64)
    b = np.asarray(b_torus, TORUS_DTYPE).astype(np.int32).astype(np.int64)
    if engine == "exact":
        return to_torus(_exact_negacyclic_int64(a, b))
    if engine == "ntt":
        from ..transforms._ntt import negacyclic_ntt_multiply

        broadcast = np.broadcast_shapes(a.shape, b.shape)
        a_b = np.broadcast_to(a, broadcast).reshape(-1, broadcast[-1])
        b_b = np.broadcast_to(b, broadcast).reshape(-1, broadcast[-1])
        rows = [negacyclic_ntt_multiply(x, y) for x, y in zip(a_b, b_b)]
        return to_torus(np.stack(rows).reshape(broadcast))
    prod = negacyclic_ifft(
        negacyclic_fft(a.astype(np.float64)) * negacyclic_fft(b.astype(np.float64)),
        a.shape[-1],
    )
    return to_torus(np.round(prod).astype(np.int64))


def to_spectrum(p_signed):
    """Forward negacyclic transform of centered integer coefficients."""
    return negacyclic_fft(np.asarray(p_signed, dtype=np.float64))


def poly_mul_spectrum(a_spec, b_spec):
    """Pointwise transform-domain product (what one VPE computes per cycle)."""
    return a_spec * b_spec


# ---------------------------------------------------------------------------
# Gadget decomposition
# ---------------------------------------------------------------------------
def recompose(digits, beta_bits):
    """Rebuild torus numerators from balanced digits (inverse of decompose).

    ``digits`` has the level axis second-to-last, as produced by
    :func:`repro.tfhe.decomposition.decompose`.
    """
    levels = digits.shape[-2]
    if beta_bits * levels > Q_BITS:
        raise ValueError("decomposition exceeds the modulus width")
    acc = np.zeros(digits.shape[:-2] + digits.shape[-1:], dtype=np.int64)
    for j in range(levels):
        acc += digits[..., j, :] * (1 << (Q_BITS - beta_bits * (j + 1)))
    return (acc & ((1 << Q_BITS) - 1)).astype(np.uint32)


def decomposition_error_bound(beta_bits, levels):
    """Worst-case |c - recompose(decompose(c))| as a centered distance mod q."""
    drop_bits = Q_BITS - beta_bits * levels
    if drop_bits <= 0:
        return 0
    return 1 << (drop_bits - 1)


# ---------------------------------------------------------------------------
# GLWE
# ---------------------------------------------------------------------------
def glwe_encrypt_zeros(count, key, rng, noise_log2=-25.0):
    """``count`` fresh GLWE encryptions of zero, drawn as keygen draws them."""
    return _encrypt_zeros(count, _key_spectrum(key), rng, noise_log2)


def glwe_encrypt(m_poly, key, rng, noise_log2=-25.0):
    """Encrypt a torus polynomial (uint32 numerators of length N)."""
    m = np.asarray(m_poly, dtype=TORUS_DTYPE)
    if m.shape != (key.N,):
        raise ValueError(f"message must have shape ({key.N},)")
    data = np.empty((key.k + 1, key.N), dtype=TORUS_DTYPE)
    data[:-1] = rng.integers(0, 1 << 32, size=(key.k, key.N), dtype=TORUS_DTYPE)
    e = gaussian_torus_noise(rng, noise_log2, shape=(key.N,))
    data[-1] = to_torus(_key_mask_products(data[:-1], _key_spectrum(key))) + m + e
    return GlweCiphertext(data)


def glwe_trivial(m_poly, k):
    """Noiseless, keyless GLWE encryption (masks = 0)."""
    m = np.asarray(m_poly, dtype=TORUS_DTYPE)
    data = np.zeros((k + 1, m.shape[-1]), dtype=TORUS_DTYPE)
    data[-1] = m
    return GlweCiphertext(data)


def glwe_add(x, y):
    """Homomorphic addition."""
    return GlweCiphertext(poly_add(x.data, y.data))


def glwe_sub(x, y):
    """Homomorphic subtraction."""
    return GlweCiphertext(poly_sub(x.data, y.data))


def glwe_rotate(ct, t):
    """Multiply every component polynomial by ``X^t`` (blind-rotation step)."""
    return GlweCiphertext(monomial_mul(ct.data, t))


def sample_extract(ct, coefficient=0):
    """Extract the LWE encryption of one message coefficient (Algorithm 1, SE).

    Coefficient ``h`` of the phase polynomial is an LWE sample under the
    flattened key ``GlweSecretKey.extracted_lwe_bits``.  The scalar,
    any-coefficient twin of :func:`repro.tfhe.glwe.sample_extract_batch`.
    """
    k, n = ct.k, ct.N
    if not 0 <= coefficient < n:
        raise ValueError(f"coefficient index out of range: {coefficient}")
    h = coefficient
    a = np.empty((k, n), dtype=np.int64)
    masks = ct.masks.astype(np.int64)
    for i in range(k):
        # a'_{i,j} = A_i[h-j] for j <= h, and -A_i[N+h-j] for j > h.
        a[i] = np.concatenate((masks[i, h::-1], -masks[i, :h:-1]))
    return LweCiphertext(to_torus(a.reshape(-1)), ct.body[h])


# ---------------------------------------------------------------------------
# GGSW and the external product
# ---------------------------------------------------------------------------
def ggsw_encrypt(m, key, beta_bits, l_b, rng, noise_log2=-25.0):
    """Encrypt a small integer plaintext (typically a key bit) as GGSW."""
    (rows,) = ggsw_encrypt_blocks([m], key, beta_bits, l_b, rng, 1, noise_log2)
    return GgswCiphertext(rows[0], beta_bits)


def ggsw_spectrum(ggsw):
    """Transform-domain image of every row polynomial of one GGSW.

    Coefficients are lifted to centered representatives first, as the
    BSK table is built; a BSK entry's spectrum is its table row.
    """
    return negacyclic_fft(ggsw.rows.view(np.int32))


def external_product(ggsw, glwe, engine="fft"):
    """``GGSW boxdot GLWE`` in the coefficient domain, one ``poly_mul`` per row."""
    if ggsw.N != glwe.N or ggsw.k != glwe.k:
        raise ValueError("GGSW/GLWE dimensions do not match")
    digits = decompose(glwe.data, ggsw.beta_bits, ggsw.l_b)
    k, l_b, n = ggsw.k, ggsw.l_b, ggsw.N
    acc = np.zeros((k + 1, n), dtype=np.int64)
    for i in range(k + 1):
        for j in range(l_b):
            row = ggsw.rows[i * l_b + j]
            for c in range(k + 1):
                acc[c] += poly_mul(digits[i, j], row[c], engine=engine).astype(np.int64)
    return GlweCiphertext(to_torus(acc))


def external_product_transform(ggsw, glwe):
    """``GGSW boxdot GLWE`` through the library's kernel, as a batch of one."""
    if ggsw.N != glwe.N or ggsw.k != glwe.k:
        raise ValueError("GGSW/GLWE dimensions do not match")
    out = external_product_spectrum_batch(
        ggsw_spectrum(ggsw), glwe.data[None], ggsw.beta_bits, ggsw.l_b
    )
    return GlweCiphertext(out[0])


def cmux(ggsw_bit, ct_false, ct_true, engine="transform"):
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


# ---------------------------------------------------------------------------
# Bootstrap, keygen and transform oracles
# ---------------------------------------------------------------------------
def reference_bootstrap(ct, test_poly, keyset, engine):
    """MS -> BR -> SE -> KS, one scalar CMux per non-zero digit.

    ``engine`` is :func:`cmux`'s: ``"transform"``, ``"fft"`` (per-product
    transforms) or ``"exact"`` (O(N^2) integer reference).  Each CMux
    reads its GGSW's coefficient rows recovered from the table.
    """
    a_tilde, b_tilde = modulus_switch(ct, keyset.params.N)
    acc = reference_blind_rotate(a_tilde, b_tilde, test_poly, keyset, engine)
    return key_switch(sample_extract(acc, 0), keyset.ksk)


def reference_blind_rotate(a_tilde, b_tilde, test_poly, keyset, engine="transform", ggsws=None):
    """One sample's blind rotation, one scalar CMux per non-zero digit.

    ``a_tilde`` (``(n,)``) and ``b_tilde`` are already in ``Z_{2N}``;
    returns the accumulator :class:`GlweCiphertext`.  ``ggsws`` optionally
    supplies the BSK entries (a sequence indexed like the key), so a
    caller rotating many samples recovers each entry once.
    """
    params = keyset.params
    acc = glwe_rotate(glwe_trivial(test_poly, params.k), -int(b_tilde))
    for i in range(params.n):
        t = int(a_tilde[i])
        if t:
            ggsw = keyset.bsk_ggsw(i) if ggsws is None else ggsws[i]
            acc = cmux(ggsw, acc, glwe_rotate(acc, t), engine=engine)
    return acc


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


def negacyclic_ifft(spectrum, n):
    """Inverse negacyclic transform back to ``n`` real coefficients.

    The unrounded unfold of :func:`repro.transforms.negacyclic.negacyclic_ifft_folded`
    (the library rounds inside the unfold instead).
    """
    folded = negacyclic_ifft_folded(spectrum, n)
    half = n // 2
    out = np.empty(spectrum.shape[:-1] + (n,), dtype=np.float64)
    out[..., :half] = folded.real
    out[..., half:] = folded.imag
    return out


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
