"""Bootstrapping-key unrolling: two blind-rotation steps per iteration.

MATCHA (the paper's reference [28], building on [59] and [60]) halves the
*sequential depth* of blind rotation by pairing key bits: for the pair
``(s_i, s_j)``,

``X^{a_i s_i + a_j s_j} = s_i s_j X^{a_i+a_j} + s_i (1-s_j) X^{a_i}
+ (1-s_i) s_j X^{a_j} + (1-s_i)(1-s_j)``

so one *unrolled* iteration computes

``ACC <- BSK_ij^(11) ⊡ (X^{a_i+a_j}-1)ACC + BSK_ij^(10) ⊡ (X^{a_i}-1)ACC
+ BSK_ij^(01) ⊡ (X^{a_j}-1)ACC + ACC``

with three GGSW ciphertexts per pair (the ``00`` term is the identity).
The trade-off the paper leans on when comparing against MATCHA: the
unrolled key is 1.5x larger and each iteration does 3 external products
instead of 2, but there are only ``n/2`` sequential iterations - a
latency-for-bandwidth trade.  ``unrolled_blind_rotation_tradeoff``
quantifies it for the performance model.
"""

from __future__ import annotations

from ..params import TFHEParams

__all__ = ["unrolled_blind_rotation_tradeoff"]


def unrolled_blind_rotation_tradeoff(params: TFHEParams) -> dict:
    """Quantify the unrolling trade (for the performance model).

    Returns sequential iterations, external products, and BSK bytes for
    the plain and unrolled variants - the numbers behind the paper's
    observation that MATCHA trades key size for latency while Morphling
    goes after throughput instead.
    """
    pairs = params.n // 2
    tail = params.n % 2
    plain_products = params.n
    unrolled_products = 3 * pairs + tail
    ggsw_bytes = (
        params.polynomials_per_ggsw * params.N * params.coeff_bytes
    )
    return {
        "plain_iterations": params.n,
        "unrolled_iterations": pairs + tail,
        "plain_external_products": plain_products,
        "unrolled_external_products": unrolled_products,
        "plain_bsk_bytes": params.n * ggsw_bytes,
        "unrolled_bsk_bytes": (3 * pairs + tail) * ggsw_bytes,
        "latency_ratio": (pairs + tail) / params.n,
        "work_ratio": unrolled_products / plain_products,
    }
