"""Classic CGGI gate bootstrapping (the original TFHE boolean API).

The 2016 CGGI construction encodes bits as ``+-1/8`` on the torus and
evaluates a gate as one linear combination followed by a sign-extraction
bootstrap.  Our default gate path (:mod:`repro.tfhe.ops`) uses the more
general LUT formulation; this module provides the historical encoding
for compatibility and because several comparison systems (MATCHA, the
original TFHE library, NuFHE) speak exactly this dialect:

- ``encrypt_bool`` / ``decrypt_bool``: bits at ``+-1/8``;
- gates as offset + linear combination, e.g.
  ``NAND: (0, 1/8) - c1 - c2``  then  bootstrap-to-sign;
- the sign bootstrap uses a constant test polynomial ``1/8 * X^j``.
"""

from __future__ import annotations

import numpy as np

from ..observability import NOISE as _NOISE, REGISTRY as _METRICS
from .bootstrap import programmable_bootstrap_batch
from .keys import KeySet
from .lwe import (
    LweCiphertext,
    lwe_add,
    lwe_add_plain,
    lwe_decrypt_phase,
    lwe_encrypt,
    lwe_neg,
)
from .torus import TORUS_DTYPE, to_torus, u32

__all__ = [
    "encrypt_bool",
    "decrypt_bool",
    "bootstrap_to_sign",
    "bootstrap_to_sign_batch",
    "nand_gate",
    "and_gate",
    "or_gate",
    "xor_gate",
    "not_gate",
    "mux_gate",
]

_EIGHTH = 1 << 29  # 1/8 of the torus as a q=2^32 numerator

_GATE_BOOTSTRAPS = _METRICS.counter(
    "tfhe_gate_bootstraps_total", "CGGI sign-extraction bootstraps executed"
)
_GATES = _METRICS.counter(
    "tfhe_gates_total", "Boolean gates evaluated (CGGI dialect), by gate"
)


def encrypt_bool(bit: int, keyset: KeySet, rng: np.random.Generator) -> LweCiphertext:
    """Encrypt a bit in the CGGI ``+-1/8`` encoding."""
    if bit not in (0, 1):
        raise ValueError("gate bootstrapping encrypts bits")
    mu = _EIGHTH if bit else u32(-_EIGHTH)
    return lwe_encrypt(int(mu), keyset.lwe_key,
                       rng, noise_log2=keyset.params.lwe_noise_log2)


def decrypt_bool(ct: LweCiphertext, keyset: KeySet) -> int:
    """Decrypt a ``+-1/8`` encoded bit by its sign."""
    if _NOISE.enabled:
        record = _NOISE.record_of(ct)
        if record is not None:
            # Sign decision boundaries sit at 0 and 1/2 on the torus.
            e = record.expected / float(1 << 32)
            e = e if e < 0.5 else 1.0 - e
            _NOISE.record_failure_point(
                "sign_decode", min(e, 0.5 - e), record.predicted_variance,
                op_id=record.op_id,
            )
    phase = int(lwe_decrypt_phase(ct, keyset.lwe_key))
    return 1 if phase < (1 << 31) else 0  # positive half-torus -> 1


def _sign_test_polynomial(params) -> np.ndarray:
    """Constant test polynomial ``1/8``: blind rotation leaves +-1/8."""
    return np.full(params.N, _EIGHTH, dtype=TORUS_DTYPE)


def bootstrap_to_sign(ct: LweCiphertext, keyset: KeySet) -> LweCiphertext:
    """Sign-refresh one ciphertext: :func:`bootstrap_to_sign_batch` of one."""
    return bootstrap_to_sign_batch([ct], keyset)[0]


def bootstrap_to_sign_batch(cts: list, keyset: KeySet) -> list:
    """Refresh ``+-1/8`` ciphertexts to exactly ``+-1/8`` + fresh noise.

    Negacyclic sign extraction: with a constant ``1/8`` test polynomial,
    phases in the positive half-torus give ``+1/8`` and the negative half
    ``-1/8``.  Gate outputs land at +-1/8 or +-3/8, a 1/8 margin from the
    half-torus decision boundaries at 0 and 1/2 - noise budget enough.
    One :func:`programmable_bootstrap_batch` over all samples.
    """
    results = programmable_bootstrap_batch(
        cts, _sign_test_polynomial(keyset.params), keyset
    )
    if results:
        _GATE_BOOTSTRAPS.inc(len(results))
    return results


def _gate_linear(offset_eighths: int, terms: list) -> LweCiphertext:
    """The linear half of a CGGI gate: signed sum plus an ``m/8`` offset."""
    acc = None
    for sign, ct in terms:
        signed = ct if sign > 0 else lwe_neg(ct)
        acc = signed if acc is None else lwe_add(acc, signed)
    return lwe_add_plain(acc, int(to_torus(offset_eighths * _EIGHTH)[()]))


def _gate(offset_eighths: int, terms: list, keyset: KeySet,
          name: str = "gate") -> LweCiphertext:
    _GATES.inc(gate=name)
    return bootstrap_to_sign(_gate_linear(offset_eighths, terms), keyset)


def nand_gate(a: LweCiphertext, b: LweCiphertext, keyset: KeySet) -> LweCiphertext:
    """``NAND(a, b) = sign(1/8 - a - b)``."""
    return _gate(1, [(-1, a), (-1, b)], keyset, name="nand")


def and_gate(a: LweCiphertext, b: LweCiphertext, keyset: KeySet) -> LweCiphertext:
    """``AND(a, b) = sign(-1/8 + a + b)``."""
    return _gate(-1, [(1, a), (1, b)], keyset, name="and")


def or_gate(a: LweCiphertext, b: LweCiphertext, keyset: KeySet) -> LweCiphertext:
    """``OR(a, b) = sign(1/8 + a + b)``."""
    return _gate(1, [(1, a), (1, b)], keyset, name="or")


def xor_gate(a: LweCiphertext, b: LweCiphertext, keyset: KeySet) -> LweCiphertext:
    """``XOR(a, b) = sign(1/4 + 2*(a + b))`` - the doubled-sum form.

    Equal bits push the phase to ``1/4 -+ 1/2 = -1/4`` (negative half);
    unequal bits cancel and leave ``+1/4``.
    """
    _GATES.inc(gate="xor")
    total = lwe_add(a, b)
    doubled = lwe_add(total, total)
    offset = lwe_add_plain(doubled, int(to_torus(2 * _EIGHTH)[()]))
    return bootstrap_to_sign(offset, keyset)


def not_gate(a: LweCiphertext) -> LweCiphertext:
    """NOT is negation in the ``+-1/8`` encoding (no bootstrap)."""
    _GATES.inc(gate="not")
    return lwe_neg(a)


def mux_gate(
    sel: LweCiphertext, when1: LweCiphertext, when0: LweCiphertext, keyset: KeySet
) -> LweCiphertext:
    """``MUX = OR(AND(sel, when1), AND(NOT sel, when0))`` (three bootstraps).

    The two AND branches are independent, so their sign bootstraps run as
    one batch of two sharing each BSK row; the OR depends on both and
    bootstraps alone.
    """
    _GATES.inc(gate="mux")
    _GATES.inc(gate="and")
    _GATES.inc(gate="and")
    lin1 = _gate_linear(-1, [(1, sel), (1, when1)])
    lin0 = _gate_linear(-1, [(1, not_gate(sel)), (1, when0)])
    take1, take0 = bootstrap_to_sign_batch([lin1, lin0], keyset)
    return or_gate(take1, take0, keyset)
