"""High-level homomorphic operations built on programmable bootstrapping.

These are the operations the paper's applications consume: boolean gates
(XG-Boost comparisons and control logic), LUT evaluation, ReLU (DeepCNN /
VGG activations), and thresholds.  Boolean gates follow the
sum-then-bootstrap pattern with message modulus ``p = 8`` so two operand
bits plus carry stay inside the padded half-torus.

``TfheContext`` bundles a keyset with encrypt/decrypt helpers so examples
and applications read naturally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Union

import numpy as np

from ..observability import NOISE as _NOISE
from ..params import TFHEParams
from .bootstrap import programmable_bootstrap_batch
from .encoding import make_test_polynomial, message_to_signed, signed_to_message
from .keys import KeySet, generate_keyset
from .lwe import (
    LweCiphertext,
    lwe_add,
    lwe_add_plain,
    lwe_encrypt,
    lwe_decrypt_phase,
    lwe_scalar_mul,
)
from .torus import Q, decode_message, encode_message

__all__ = ["TfheContext", "GATE_LUTS"]

#: A LUT over ``[0, p/2)``: a function of the message or its table.
LutHalf = Union[Callable[[int], int], Sequence[int]]

#: LUTs over the two-bit sum ``x = b1 + b2`` (values 0..2), message space p=8.
GATE_LUTS = {
    "nand": lambda x: 1 if x < 2 else 0,
    "and": lambda x: 1 if x == 2 else 0,
    "or": lambda x: 1 if x >= 1 else 0,
    "nor": lambda x: 1 if x == 0 else 0,
    "xor": lambda x: 1 if x == 1 else 0,
    "xnor": lambda x: 1 if x != 1 else 0,
}


@dataclass
class TfheContext:
    """A keyset plus the encode/encrypt/bootstrap conveniences.

    ``default_p`` is the message modulus used by :meth:`encrypt` when none
    is given; gates always use ``p = 8`` internally.  ``rng`` draws every
    encryption's mask and noise; a context built around an existing keyset
    seeds it from OS entropy.
    """

    keyset: KeySet
    default_p: int = 8
    # A lambda, so that importing the module does not load numpy.random.
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(), repr=False, compare=False
    )

    # -- construction -------------------------------------------------
    @classmethod
    def create(cls, params: TFHEParams, seed: int = 0, **kwargs: Any) -> "TfheContext":
        """Generate fresh keys for ``params`` with a deterministic seed.

        Encryptions continue the same seeded generator after keygen's
        draws, so one seed reproduces the keys and every ciphertext.
        """
        rng = np.random.default_rng(seed)
        return cls(generate_keyset(params, rng), rng=rng, **kwargs)

    @property
    def params(self) -> TFHEParams:
        return self.keyset.params

    # -- encrypt / decrypt --------------------------------------------
    def encrypt(self, message: int, p: Optional[int] = None) -> LweCiphertext:
        """Encrypt ``message`` in ``Z_p`` (must stay below p/2: padding bit)."""
        p = p or self.default_p
        if not 0 <= message < p // 2:
            raise ValueError(f"message {message} outside padded range [0, {p // 2})")
        m_torus = encode_message(message, p)[()]
        return lwe_encrypt(m_torus, self.keyset.lwe_key, self.rng,
                           noise_log2=self.params.lwe_noise_log2)

    def encrypt_signed(self, value: int, p: Optional[int] = None) -> LweCiphertext:
        """Encrypt a signed value in ``[-p/4, p/4)`` via offset binary."""
        p = p or self.default_p
        return self.encrypt(signed_to_message(value, p), p)

    def decrypt(self, ct: LweCiphertext, p: Optional[int] = None) -> int:
        """Decrypt and decode back to ``Z_p``."""
        p = p or self.default_p
        if _NOISE.enabled:
            record = _NOISE.record_of(ct)
            if record is not None:
                # Decode rounds to the nearest multiple of q/p; the margin
                # is half a step minus the shadow's offset from the grid.
                scale = Q // p
                off = record.expected % scale
                off = min(off, scale - off) / float(Q)
                _NOISE.record_failure_point(
                    "decode", 0.5 / p - off, record.predicted_variance,
                    op_id=record.op_id,
                )
        phase = lwe_decrypt_phase(ct, self.keyset.lwe_key)
        return int(decode_message(np.asarray(phase), p)[()])

    def decrypt_signed(self, ct: LweCiphertext, p: Optional[int] = None) -> int:
        """Decrypt an offset-binary signed value."""
        p = p or self.default_p
        return message_to_signed(self.decrypt(ct, p), p)

    # -- bootstrapped operations ---------------------------------------
    def apply_lut(
        self, ct: LweCiphertext, lut_half: LutHalf, p: Optional[int] = None
    ) -> LweCiphertext:
        """Programmable bootstrap evaluating ``lut_half`` over ``[0, p/2)``."""
        return self.apply_lut_batch([ct], [lut_half], p)[0]

    def _lut_test_poly(self, lut_half: LutHalf, p: int) -> np.ndarray:
        lut = np.asarray([lut_half(x) if callable(lut_half) else lut_half[x]
                          for x in range(p // 2)], dtype=np.int64)
        return make_test_polynomial(lut, self.params, p)

    def apply_lut_batch(self, cts: Sequence[LweCiphertext], lut_halves: Sequence[LutHalf],
                        p: Optional[int] = None,
                        noise_labels: Optional[Sequence[str]] = None) -> List[LweCiphertext]:
        """Bootstrap several ciphertexts in one batched pass.

        ``lut_halves[r]`` programs sample ``r`` (per-sample test
        polynomials riding the same BSK pass).  Bit-identical to mapping
        :meth:`apply_lut` over the inputs.
        """
        p = p or self.default_p
        tps = np.stack([self._lut_test_poly(lut_half, p) for lut_half in lut_halves])
        return programmable_bootstrap_batch(
            cts, tps, self.keyset, noise_labels=noise_labels
        )

    def gate_batch(self, names: list, xs: list, ys: list) -> list:
        """Evaluate independent binary gates as one batched bootstrap.

        The gates share every BSK row (one blind-rotation pass for the
        whole level of a circuit); each sample keeps its own LUT and its
        own ``gate:<name>`` noise label.
        """
        luts = []
        sums = []
        for name, x, y in zip(names, xs, ys):
            try:
                luts.append(GATE_LUTS[name])
            except KeyError:
                raise ValueError(
                    f"unknown gate {name!r}; known: {sorted(GATE_LUTS)}"
                ) from None
            if _NOISE.enabled:
                with _NOISE.labelled(f"gate:{name}"):
                    sums.append(lwe_add(x, y))
            else:
                sums.append(lwe_add(x, y))
        labels = [f"gate:{name}" for name in names] if _NOISE.enabled else None
        return self.apply_lut_batch(sums, luts, p=8, noise_labels=labels)

    def bootstrap(self, ct: LweCiphertext, p: Optional[int] = None) -> LweCiphertext:
        """Noise-refresh bootstrap (identity LUT)."""
        p = p or self.default_p
        return self.apply_lut(ct, lambda x: x, p)

    def gate(self, name: str, x: LweCiphertext, y: LweCiphertext) -> LweCiphertext:
        """Evaluate a binary gate on bit ciphertexts encrypted with p=8."""
        return self.gate_batch([name], [x], [y])[0]

    def lwe_not(self, x: LweCiphertext) -> LweCiphertext:
        """NOT of a bit: 1 - x, linear (no bootstrap needed)."""
        one = encode_message(1, 8)[()]
        return lwe_add_plain(lwe_scalar_mul(-1, x), int(one))

    def relu_signed(self, ct: LweCiphertext, p: Optional[int] = None) -> LweCiphertext:
        """ReLU on an offset-binary signed value (single bootstrap)."""
        p = p or self.default_p
        quarter = p // 4
        return self.apply_lut(ct, lambda x: max(x - quarter, 0) + quarter, p)

    def compare_ge(
        self, ct: LweCiphertext, threshold: int, p: Optional[int] = None
    ) -> LweCiphertext:
        """``1`` if the signed value >= ``threshold`` else ``0`` (one bootstrap).

        Output is a bit in message space p=8 so it feeds directly into
        gates - the XG-Boost node evaluation pattern.
        """
        p = p or self.default_p
        quarter = p // 4
        lut = [1 if (x - quarter) >= threshold else 0 for x in range(p // 2)]
        bit = self.apply_lut(ct, lut, p)
        return self._rescale_bit(bit, p)

    def _rescale_bit(self, bit_ct: LweCiphertext, from_p: int) -> LweCiphertext:
        """Rescale a {0,1} result from modulus ``from_p`` to the gate modulus 8.

        Encodings differ only by the scale ``q/p``; multiplying by the
        integer ratio moves between them exactly.
        """
        if from_p == 8:
            return bit_ct
        if from_p < 8:
            raise ValueError("bit rescaling expects from_p >= 8")
        return lwe_scalar_mul(from_p // 8, bit_ct)
