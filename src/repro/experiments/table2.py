"""Table II: TFHE parameters and notation, bound to the implementation.

The paper's notation table, regenerated with each symbol's live value in
a chosen parameter set and the code location that implements it - so the
glossary doubles as a cross-reference into the library.
"""

from __future__ import annotations

from ..params import TFHEParams, get_params
from .common import ExperimentResult

__all__ = ["run_table2"]


def run_table2(params: TFHEParams = None) -> ExperimentResult:
    params = params or get_params("I")
    p = params
    rows = [
        ["N", "size of polynomial", p.N, "TFHEParams.N"],
        ["n", "dimension of LWE ciphertext", p.n, "TFHEParams.n"],
        ["k", "dimension of GLWE ciphertext", p.k, "TFHEParams.k"],
        ["q", "modulus coefficient of ciphertext", f"2^{p.q_bits}", "TFHEParams.q"],
        ["beta", "decomposition base", f"2^{p.beta_bits}", "TFHEParams.beta"],
        ["l_b", "bootstrapping key level", p.l_b, "TFHEParams.l_b"],
        ["l_k", "key-switching key level", p.l_k, "TFHEParams.l_k"],
        ["BSK_i", "bootstrapping key at iteration i",
         f"(k+1)l_b x (k+1) = {(p.k + 1) * p.l_b} x {p.k + 1} polys",
         "tfhe.keys.KeySet.bsk_table[i]"],
        ["ACC_i", "accumulation ciphertext at iteration i",
         f"(k+1) = {p.k + 1} polys", "tfhe.glwe.GlweCiphertext"],
        ["KSK_(i,j)", "KSK for LWE mask i and level j",
         f"(n+1) = {p.n + 1} scalars", "tfhe.keys.KeySwitchingKey"],
    ]
    return ExperimentResult(
        "table2",
        f"TFHE parameters and notation (instantiated for set {p.name})",
        ["symbol", "description", f"value (set {p.name})", "implemented by"],
        rows,
    )
