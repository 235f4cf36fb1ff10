"""Multi-LUT programmable bootstrapping: many functions, one blind rotation.

Blind rotation is ~97 % of the bootstrap; sample extraction is free.  If
several functions of the *same* input are needed (e.g. an activation and
its requantization), the test polynomial can interleave ``L`` lookup
tables at sub-window granularity and a single blind rotation serves all
of them - each function's value sits at extraction offset ``j * s`` with
``s = 2N / (p * L)`` (the PBS-many-LUT technique of the TFHE literature).

The price is noise headroom: the decision margin shrinks from
``1/(2p)`` to ``1/(2pL)`` (less the modulus-switch step), i.e. the
multi-LUT spends ``log2(L)`` bits of padding.  :func:`max_luts_for_params`
says how far a parameter set can push ``L`` under the one decode budget
of :mod:`repro.tfhe.noise`.
"""

from __future__ import annotations

import numpy as np

from ..observability import NOISE as _NOISE
from ..params import TFHEParams
from .bootstrap import _track_bootstrap, blind_rotate_batch, key_switch_batch, modulus_switch
from .encoding import extend_lut_antiperiodic
from .glwe import sample_extract_batch
from .keys import KeySet
from .lwe import LweCiphertext
from .noise import (
    DEFAULT_LOG2_BUDGET,
    blind_rotation_noise_variance,
    decision_margin,
    gaussian_tail_log2,
    key_switch_noise_variance,
    modulus_switch_noise_variance,
)
from .polynomial import monomial_rotate_batch
from .torus import encode_message

__all__ = [
    "make_multi_test_polynomial",
    "multi_lut_bootstrap",
    "max_luts_for_params",
]


def make_multi_test_polynomial(luts, params: TFHEParams, p: int) -> np.ndarray:
    """Interleave ``L`` lookup tables into one test polynomial.

    ``luts`` is a sequence of length-``p/2`` tables (or callables over
    ``[0, p/2)``).  Coefficient ``x`` holds function ``q mod L`` of
    message ``q // L`` where ``q = round(x / s)`` - so extracting
    coefficient ``j * s`` after blind rotation evaluates table ``j``.
    """
    L = len(luts)
    if L < 1:
        raise ValueError("need at least one lookup table")
    stride = (2 * params.N) // (p * L)
    if stride < 1:
        raise ValueError(
            f"{L} tables at p={p} exceed the polynomial resolution "
            f"(need p*L <= 2N = {2 * params.N})"
        )
    tables = []
    for lut in luts:
        values = np.asarray(
            [lut(x) if callable(lut) else lut[x] for x in range(p // 2)],
            dtype=np.int64,
        )
        tables.append(extend_lut_antiperiodic(values, p))
    x = np.arange(params.N)
    q = (x + stride // 2) // stride
    table_idx = q % L
    message = (q // L) % p
    coeffs = np.empty(params.N, dtype=np.int64)
    for j in range(L):
        mask = table_idx == j
        coeffs[mask] = tables[j][message[mask]] % p
    return encode_message(coeffs, p)


def multi_lut_bootstrap(ct: LweCiphertext, luts, keyset: KeySet, p: int) -> list:
    """Evaluate every table in ``luts`` with ONE blind rotation.

    Returns one LWE ciphertext per table, each key-switched back to the
    input key - ``L`` results for roughly the cost of one bootstrap.
    Coefficient ``j * s`` of the accumulator is coefficient 0 of
    ``X^{-j*s} * ACC``, so the ``L`` extractions are ``L`` rotated rows
    through the batch sample-extract and key-switch stages.
    """
    params = keyset.params
    L = len(luts)
    test_poly = make_multi_test_polynomial(luts, params, p)
    stride = (2 * params.N) // (p * L)
    offsets = stride * np.arange(L)
    a_tilde, b_tilde = modulus_switch(ct, params.N)
    acc = blind_rotate_batch(a_tilde[None, :], [b_tilde], test_poly, keyset)
    rows = monomial_rotate_batch(np.repeat(acc, L, axis=0), -offsets[:, None])
    out_a, out_b = key_switch_batch(*sample_extract_batch(rows), keyset.ksk)
    outputs = [LweCiphertext(out_a[j], out_b[j]) for j in range(L)]
    if _NOISE.enabled:
        for out, offset in zip(outputs, offsets.tolist()):
            _track_bootstrap(
                out, ct, monomial_rotate_batch(test_poly, -offset), keyset,
                "multi_lut_bootstrap",
            )
    return outputs


def max_luts_for_params(params: TFHEParams, p: int) -> int:
    """Largest ``L`` whose every decision stays within the failure budget.

    The blind-rotation input is the output of a previous bootstrap (the
    steady-state regime), widened by the modulus-switch rounding; each
    decision fails when that noise crosses :func:`decision_margin` at
    ``L`` tables.  Returns 0 when even one table misses
    :data:`DEFAULT_LOG2_BUDGET`.
    """
    variance = (key_switch_noise_variance(params, blind_rotation_noise_variance(params))
                + modulus_switch_noise_variance(params))
    resolution = (2 * params.N) // p  # stride must stay >= 1
    luts = 0
    while luts < resolution and gaussian_tail_log2(
            decision_margin(params, p, luts + 1), variance) <= DEFAULT_LOG2_BUDGET:
        luts += 1
    return luts
