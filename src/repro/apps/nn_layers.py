"""Homomorphic neural-network layer helpers.

Two halves:

1. *Workload accounting* - how many bootstraps and linear MACs a
   quantized conv/FC layer demands when lowered to TFHE the Concrete-ML
   way: the linear part is plaintext-weight x ciphertext accumulation
   (no bootstrap), and every output value pays
   ``PBS_PER_ACTIVATION`` programmable bootstraps (requantize the
   accumulator + apply the activation LUT).
2. *Functional mini-layers* - real encrypted dense/ReLU evaluation on
   the scheme substrate, used by the examples and integration tests to
   prove the lowering actually computes the right numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.scheduler import LayerDemand
from ..tfhe.lwe import LweCiphertext, lwe_add, lwe_add_plain, lwe_scalar_mul, lwe_trivial
from ..tfhe.ops import TfheContext
from ..tfhe.torus import encode_message

__all__ = [
    "PBS_PER_ACTIVATION",
    "ConvSpec",
    "FcSpec",
    "conv_layer_demand",
    "fc_layer_demand",
    "encrypted_dot",
    "encrypted_dense_relu",
]

#: Bootstraps per produced activation value: one to requantize the
#: widened accumulator back to the message space, one for the activation
#: LUT.  (Concrete-ML fuses them when the activation is monotone; we keep
#: the conservative two, documented in DESIGN.md.)
PBS_PER_ACTIVATION = 2


@dataclass(frozen=True)
class ConvSpec:
    """One convolution layer on square feature maps."""

    name: str
    in_hw: int
    in_ch: int
    out_ch: int
    kernel: int
    stride: int = 1
    activated: bool = True

    @property
    def out_hw(self) -> int:
        return max(1, (self.in_hw - self.kernel) // self.stride + 1)

    @property
    def activations(self) -> int:
        return self.out_hw * self.out_hw * self.out_ch

    @property
    def macs(self) -> int:
        return self.activations * self.kernel * self.kernel * self.in_ch


@dataclass(frozen=True)
class FcSpec:
    """One fully connected layer."""

    name: str
    in_features: int
    out_features: int
    activated: bool = True

    @property
    def activations(self) -> int:
        return self.out_features

    @property
    def macs(self) -> int:
        return self.in_features * self.out_features


def conv_layer_demand(spec: ConvSpec) -> LayerDemand:
    """Scheduler demand of one conv layer."""
    pbs = spec.activations * PBS_PER_ACTIVATION if spec.activated else 0
    return LayerDemand(spec.name, bootstraps=pbs, linear_macs=spec.macs)


def fc_layer_demand(spec: FcSpec) -> LayerDemand:
    """Scheduler demand of one FC layer."""
    pbs = spec.activations * PBS_PER_ACTIVATION if spec.activated else 0
    return LayerDemand(spec.name, bootstraps=pbs, linear_macs=spec.macs)


# ---------------------------------------------------------------------------
# Functional mini-layers (run on the real scheme)
# ---------------------------------------------------------------------------
def encrypted_dot(cts: list, weights: list, n: int) -> LweCiphertext:
    """Plaintext-weight dot product of encrypted values (linear, no PBS)."""
    if len(cts) != len(weights):
        raise ValueError("ciphertexts and weights must align")
    acc = lwe_trivial(0, n)
    for ct, w in zip(cts, weights):
        if w:
            acc = lwe_add(acc, lwe_scalar_mul(int(w), ct))
    return acc


def encrypted_dense_relu(
    ctx: TfheContext, inputs: list, weight_rows: list, p: Optional[int] = None
) -> list:
    """One dense layer + ReLU over offset-binary signed ciphertexts.

    ``inputs`` are offset-encoded signed values in ``[-p/4, p/4)``; small
    integer weights.  The offset of the encoding is corrected after the
    plaintext-weight accumulation so a single ReLU bootstrap per output
    suffices - the exact lowering the workload accounting charges (up to
    the fused requantization).
    """
    p = p or ctx.default_p
    n = ctx.params.n
    outputs = []
    quarter_torus = int(encode_message(p // 4, p)[()])
    for weights in weight_rows:
        acc = encrypted_dot(inputs, weights, n)
        # inputs encode v + p/4, so the dot product carries an extra
        # sum(w) * p/4; subtract it and re-add one offset for the output.
        offset_correction = (1 - sum(int(w) for w in weights)) * quarter_torus
        acc = lwe_add_plain(acc, offset_correction)
        outputs.append(ctx.relu_signed(acc, p))
    return outputs
