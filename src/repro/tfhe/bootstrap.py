"""Programmable bootstrapping: MS -> BR -> SE -> KS (Algorithm 1).

The four stages map one-to-one onto Morphling's hardware:

- :func:`modulus_switch` - VPU scalar multiply + round (memory-light);
- :func:`blind_rotate_batch` - the XPU's ``n`` sequential CMux external
  products, each a rotation -> decomposition -> transform-domain
  matrix-vector product;
- sample extraction (:func:`repro.tfhe.glwe.sample_extract_batch`) - pure
  data regrouping on the VPU;
- :func:`key_switch_batch` - the memory-bound KSK contraction on the VPU.

:func:`programmable_bootstrap_batch` is the one place they are composed
with telemetry; executed work is measured where it is dispatched
(``transforms_fft_total``, ``tfhe_blind_rotation_steps_total``,
``tfhe_key_switches_total``).

The pipeline is *batch-first*: :func:`blind_rotate_batch` runs ``B``
independent accumulators through every BSK row together - the software
analogue of the paper's 2D VPE array, where each row processes a
different bootstrap against the shared, pre-transformed BSK entry.  The
scalar entry points are batch-of-one calls of the same pipeline.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..observability import (
    NOISE as _NOISE,
    REGISTRY as _METRICS,
    TRACER as _TRACER,
)
from .decomposition import _digits, decompose
from .ggsw import external_product_spectrum_batch
from .glwe import sample_extract_batch
from .keys import KeySet, KeySwitchingKey
from .lwe import LweCiphertext
from .noise import (
    blind_rotation_noise_variance,
    key_switch_noise_variance,
    modulus_switch_noise_variance,
)
from .polynomial import monomial_rotate_batch, rotate_rows
from .torus import STREAM_BLOCK_BYTES, TORUS_DTYPE, modswitch, to_signed, to_torus, u32

__all__ = [
    "modulus_switch",
    "blind_rotate_batch",
    "key_switch",
    "key_switch_batch",
    "programmable_bootstrap",
    "programmable_bootstrap_batch",
]

#: Widest batch whose key switch runs as a 32-bit wraparound ``einsum``
#: against the resident key; wider batches take the block GEMM.  From the
#: crossover measured on set I and the toy set (docs/perf.md, lever ledger).
KS_NARROW_BATCH = 2

_BOOTSTRAPS = _METRICS.counter(
    "tfhe_bootstraps_total", "Programmable bootstraps executed (functional path)"
)
_BR_STEPS = _METRICS.counter(
    "tfhe_blind_rotation_steps_total",
    "Blind-rotation CMux iterations executed (zero digits skipped)",
)
_KEY_SWITCHES = _METRICS.counter(
    "tfhe_key_switches_total", "LWE key switches executed"
)


def modulus_switch(ct: LweCiphertext, N: int) -> tuple:
    """Rescale an LWE ciphertext to modulus ``2N`` (Algorithm 1, line 1).

    Returns plain integer arrays ``(a_tilde, b_tilde)`` in ``Z_{2N}``.
    """
    a_tilde = modswitch(ct.a, 2 * N)
    b_tilde = int(modswitch(np.asarray(ct.b), 2 * N)[()])
    return a_tilde, b_tilde


def blind_rotate_batch(
    a_tilde: np.ndarray,
    b_tilde: np.ndarray,
    test_polys: np.ndarray,
    keyset: KeySet,
) -> np.ndarray:
    """Blind-rotate ``B`` independent accumulators through one BSK pass.

    ``a_tilde`` has shape ``(B, n)`` and ``b_tilde`` shape ``(B,)`` (both
    already modulus-switched to ``Z_{2N}``); ``test_polys`` is ``(N,)``
    (shared) or ``(B, N)`` (per-sample LUTs); other counts raise
    ``ValueError``.  Returns the ``(B, k+1, N)`` accumulator data.

    Every step's per-sample read offsets ``-a~ mod 2N`` are computed once
    per call, as Python ints.  Per BSK row ``i`` the samples whose digit
    ``a~_i`` is non-zero are gathered and pushed through one pass -
    rotate-diff as one contiguous read per sample of the signed extension
    (:func:`repro.tfhe.polynomial.rotate_rows`), carry-free decomposition
    written straight into the FFT input, forward transform, MAC against the
    eagerly transformed BSK entry, inverse transform with the rounding
    fused into its unfold - with no intermediate :class:`GlweCiphertext`
    or digit array.  This is exactly the 2D VPE-array schedule: one BSK
    row amortized over all in-flight bootstraps.
    """
    params = keyset.params
    k, l_b, n_poly = params.k, params.l_b, params.N
    a_tilde = np.asarray(a_tilde, dtype=np.int64)
    if a_tilde.shape[-1] != params.n:
        raise ValueError(
            f"ciphertext dimension {a_tilde.shape[-1]} does not match "
            f"the bootstrapping key's LWE dimension {params.n}"
        )
    batch = a_tilde.shape[0]
    b_tilde = np.asarray(b_tilde, dtype=np.int64)
    test_polys = np.asarray(test_polys, dtype=TORUS_DTYPE)
    luts = test_polys.shape[0] if test_polys.ndim == 2 else batch
    if b_tilde.shape != (batch,) or luts != batch:
        raise ValueError(
            f"{b_tilde.size} bodies and {luts} test polynomials for {batch} ciphertexts: "
            "pass one body per ciphertext and one shared (N,) LUT or one per ciphertext"
        )
    table = keyset.bsk_table
    tp = np.broadcast_to(test_polys, (batch, n_poly))
    acc = np.zeros((batch, k + 1, n_poly), dtype=TORUS_DTYPE)
    acc[:, k, :] = monomial_rotate_batch(tp, -b_tilde)
    # Step i reads sample r at offset -a~[r, i] mod 2N; offset 0 (a~ = 0)
    # means the sample skips the step.
    offsets = (-a_tilde & (2 * n_poly - 1)).T.tolist()
    for row, offs in zip(table, offsets):
        # Fused rotate-diff: diff = X^{a~_i} * ACC - ACC.
        if all(offs):
            diff = rotate_rows(acc, offs)
            diff -= acc
            acc += external_product_spectrum_batch(row, diff, params.beta_bits, l_b)
        elif any(offs):
            active = [r for r, s in enumerate(offs) if s]
            sub = acc[active]
            diff = rotate_rows(sub, [offs[r] for r in active])
            diff -= sub
            acc[active] = sub + external_product_spectrum_batch(
                row, diff, params.beta_bits, l_b
            )
    if _METRICS.enabled:
        total_steps = int(np.count_nonzero(a_tilde))
        if total_steps:
            _BR_STEPS.inc(total_steps)
    return acc


def key_switch_batch(
    a: np.ndarray,
    b: np.ndarray,
    ksk: KeySwitchingKey,
) -> Tuple[np.ndarray, np.ndarray]:
    """Switch ``B`` extracted LWE samples back to the original key.

    ``a`` has shape ``(B, kN)``, ``b`` shape ``(B,)``.  The contraction
    ``out = -sum_{m,j} d[b,m,j] * KSK[m,j]`` runs in one of two layouts,
    picked by the batch width, with the same torus words from both:

    - ``B <= KS_NARROW_BATCH``: the centred digits, as uint32 words,
      against the resident uint32 key in ``np.einsum``.  Products and sums
      wrap modulo ``2**32``, which is the torus, so the result is exact by
      construction; no key word is converted and nothing key-sized or
      block-sized is allocated.  Einsum walks the key once per sample,
      which is why it stops paying past two samples.
    - wider batches: the paper's KSK reuse (Section V-B), an exact float64
      GEMM of the ``(B, kN*l_k)`` digit matrix against the key, one
      ``STREAM_BLOCK_BYTES`` row block at a time through one reused
      buffer, so every block is read once for all ``B`` ciphertexts.  Key words are read as
      centred int32 (that moves each product by a multiple of ``2**32``,
      which :func:`to_torus` discards); with |digit| <= beta_ks/2 every
      partial sum is then an integer below ``2**53`` whatever order BLAS
      adds in - :class:`KeySwitchingKey` refuses a key that breaks the
      bound.
    """
    a = np.asarray(a, dtype=TORUS_DTYPE)
    if a.shape[-1] != ksk.in_dimension:
        raise ValueError("ciphertext dimension does not match KSK input dimension")
    batch, n = a.shape[0], ksk.out_dimension
    _KEY_SWITCHES.inc(batch)
    if batch <= KS_NARROW_BATCH:
        words = _digits(a, ksk.beta_ks_bits, ksk.l_k).transpose(0, 2, 1).view(TORUS_DTYPE)
        mask_dot = np.einsum("bml,mln->bn", words, ksk.masks)
        body_dot = np.einsum("bml,ml->b", words, ksk.bodies)
        return np.negative(mask_dot), to_torus(b) - body_dot
    digits = decompose(a, ksk.beta_ks_bits, ksk.l_k).transpose(0, 2, 1)  # (B, kN, l_k)
    # repro: allow[RPR002] GEMM boundary: |digit| <= beta_ks/2 is exact in float64
    digits = digits.astype(np.float64, order="C").reshape(batch, -1)
    masks = ksk.masks.reshape(-1, n).view(np.int32)
    block = max(1, STREAM_BLOCK_BYTES // (8 * n))
    rows = np.empty((min(block, len(masks)), n))
    mask_acc = np.zeros((batch, n))
    for start in range(0, len(masks), block):
        chunk = masks[start : start + block]
        rows[: len(chunk)] = chunk  # GEMM boundary: the block's float64 lift
        mask_acc += digits[:, start : start + block] @ rows[: len(chunk)]
    # repro: allow[RPR002] GEMM boundary: centred 32-bit bodies are exact in float64
    body_dot = digits @ ksk.bodies.reshape(-1).view(np.int32).astype(np.float64)
    body_acc = np.asarray(b).astype(np.int64) - body_dot.astype(np.int64)
    return to_torus(-mask_acc.astype(np.int64)), to_torus(body_acc)


def key_switch(ct: LweCiphertext, ksk: KeySwitchingKey) -> LweCiphertext:
    """Switch an extracted LWE ciphertext back to the original key.

    ``c'' = (0, ..., b') - sum_i sum_j Decomp(a'_i)_j * KSK_(i,j)``
    (Algorithm 1, line 6), a batch-of-one view of
    :func:`key_switch_batch`.
    """
    out_a, out_b = key_switch_batch(ct.a[None, :], np.asarray([ct.b]), ksk)
    return LweCiphertext(out_a[0], out_b[0])


def _negacyclic_lookup(test_poly: np.ndarray, j: int, N: int) -> int:
    """Coefficient 0 of ``X^{-j} * TP`` over ``Z_{2N}`` (antiperiodic)."""
    j %= 2 * N
    if j < N:
        return int(test_poly[j])
    return int(u32(-int(test_poly[j - N])))


def _track_bootstrap(
    result: LweCiphertext,
    ct_in: LweCiphertext,
    test_poly: np.ndarray,
    keyset: KeySet,
    op: str,
) -> None:
    """Noise-telemetry hook: shadow the bootstrap's ideal output.

    A bootstrap is a *decision* followed by a *refresh*: the noisy phase
    picks a ``Z_{2N}`` test-polynomial bucket (where modswitch rounding
    plus the input noise can pick wrong), and the output carries only
    fresh BR+KS noise.  The shadow replays the decision on the noise-free
    expected phase, records the fresh output variance on ``result``, and
    logs the decision margin (distance to the nearest bucket whose output
    differs) as a failure point.
    """
    record = _NOISE.record_of(ct_in)
    if record is None:
        return
    params = keyset.params
    n2 = 2 * params.N
    m = int(modswitch(np.asarray(record.expected, dtype=np.uint32), n2)[()])
    expected_out = _negacyclic_lookup(test_poly, m, params.N)
    out_variance = key_switch_noise_variance(
        params, blind_rotation_noise_variance(params)
    )
    _NOISE.track(result, op, out_variance, expected_out, parents=(ct_in,))
    # Decision margin: expected phase offset within its bucket, plus the
    # distance (in buckets) to the nearest value change of the LUT.
    step = 1.0 / n2
    delta_num = int(to_signed(u32(record.expected - m * ((1 << 32) // n2))))
    delta = delta_num / float(1 << 32)
    d_up = d_down = None
    for d in range(1, n2):
        if d_up is None and _negacyclic_lookup(test_poly, m + d, params.N) != expected_out:
            d_up = d
        if d_down is None and _negacyclic_lookup(test_poly, m - d, params.N) != expected_out:
            d_down = d
        if d_up is not None and d_down is not None:
            break
    margin_up = ((d_up - 0.5) * step - delta) if d_up is not None else 0.5
    margin_down = ((d_down - 0.5) * step + delta) if d_down is not None else 0.5
    decision_variance = record.predicted_variance + modulus_switch_noise_variance(params)
    _NOISE.record_failure_point(
        "bootstrap_decision", min(margin_up, margin_down), decision_variance
    )


def programmable_bootstrap(
    ct: LweCiphertext, test_poly: np.ndarray, keyset: KeySet
) -> LweCiphertext:
    """Full programmable bootstrap of one LWE ciphertext (Algorithm 1).

    A batch-of-one call of :func:`programmable_bootstrap_batch`,
    telemetry included.
    """
    return programmable_bootstrap_batch([ct], test_poly, keyset)[0]


def programmable_bootstrap_batch(
    cts: Sequence[LweCiphertext],
    test_polys: np.ndarray,
    keyset: KeySet,
    noise_labels: Optional[Sequence[str]] = None,
) -> List[LweCiphertext]:
    """Bootstrap ``B`` independent LWE ciphertexts through one batched pass.

    ``test_polys`` is one shared ``(N,)`` LUT or a per-sample ``(B, N)``
    stack (the multi-LUT case: independent bootstraps, each with its own
    test polynomial, sharing every BSK row).  All four stages run
    vectorized over the batch, and each output is bit-identical to
    bootstrapping that sample alone.  The noise tracker shadows every
    sample individually (``noise_labels`` optionally tags sample ``r``'s records, so batched
    gates report the same per-gate provenance as scalar ones).
    """
    cts = list(cts)
    batch = len(cts)
    if batch == 0:
        return []
    params = keyset.params
    a = np.stack([ct.a for ct in cts])
    b = np.asarray([ct.b for ct in cts], dtype=TORUS_DTYPE)
    tps = np.asarray(test_polys, dtype=TORUS_DTYPE)
    with _TRACER.span("programmable_bootstrap_batch", category="tfhe",
                      batch=batch, n=params.n, N=params.N):
        a_tilde = modswitch(a, 2 * params.N)
        b_tilde = modswitch(b, 2 * params.N)
        acc = blind_rotate_batch(a_tilde, b_tilde, tps, keyset)
        ext_a, ext_b = sample_extract_batch(acc)
        out_a, out_b = key_switch_batch(ext_a, ext_b, keyset.ksk)
    _BOOTSTRAPS.inc(batch)
    results = [LweCiphertext(out_a[r], out_b[r]) for r in range(batch)]
    if _NOISE.enabled:
        tp_rows = np.broadcast_to(tps, (batch, params.N))
        for r in range(batch):
            if noise_labels is not None:
                with _NOISE.labelled(noise_labels[r]):
                    _track_bootstrap(
                        results[r], cts[r], tp_rows[r], keyset,
                        "programmable_bootstrap",
                    )
            else:
                _track_bootstrap(
                    results[r], cts[r], tp_rows[r], keyset, "programmable_bootstrap"
                )
    return results
