"""Functional Morphling machine: bootstrapping through the architecture.

The timing models say how *fast* Morphling is; this module shows the
architecture computes the *right thing*.  ``MorphlingMachine`` executes
real programmable bootstraps using the architectural components:

- the Private-A1 :class:`~repro.core.buffers.DoublePointerRotator`
  streams ``(ACC, X^t * ACC)`` pairs (instead of calling the ring
  primitive directly);
- the decomposition units gadget-decompose the streamed difference;
- the :class:`~repro.core.vpe_array.VpeArray` performs the external
  products in the transform domain with output-stationary accumulation,
  one shared BSK_i per iteration across all resident rows (the BSK reuse
  the paper exploits);
- the VPU steps (MS / SE / KS) run on the scheme substrate, batched.

Integration tests assert the machine's outputs decrypt identically to
the reference :func:`~repro.tfhe.bootstrap.programmable_bootstrap` - the
architecture-equals-algorithm check a real design verification flow
performs against its golden model.
"""

from __future__ import annotations

import numpy as np

from ..observability import BUS as _BUS, COUNTERS as _COUNTERS
from ..params import TFHEParams
from ..tfhe.bootstrap import key_switch_batch, modulus_switch
from ..tfhe.glwe import GlweCiphertext, glwe_trivial, sample_extract_batch
from ..tfhe.keys import KeySet
from ..tfhe.lwe import LweCiphertext
from ..tfhe.torus import TORUS_DTYPE
from .accelerator import MorphlingConfig
from .buffers import DoublePointerRotator
from .vpe_array import VpeArray

__all__ = ["MorphlingMachine"]


class MorphlingMachine:
    """Functional model of the accelerator executing real bootstraps."""

    def __init__(self, config: MorphlingConfig, keyset: KeySet) -> None:
        if keyset.params.k + 1 > config.vpe_cols:
            raise ValueError(
                f"k+1 = {keyset.params.k + 1} output columns exceed the "
                f"{config.vpe_cols}-column VPE array"
            )
        self.config = config
        self.keyset = keyset
        self.array = VpeArray(rows=config.vpe_rows, cols=config.vpe_cols)

    @property
    def params(self) -> TFHEParams:
        return self.keyset.params

    # ------------------------------------------------------------------
    def _rotated_difference(self, acc: GlweCiphertext, t: int) -> GlweCiphertext:
        """``X^t * ACC - ACC`` via the double-pointer rotator streams.

        Each component polynomial is read through pointer A (original)
        and pointer B (rotated); the difference feeds decomposition -
        exactly the Private-A1 datapath of Section V-C.
        """
        diff = np.empty_like(acc.data)
        for c in range(acc.data.shape[0]):
            rotator = DoublePointerRotator(acc.data[c], self.config.fft_lanes)
            original, rotated = rotator.stream(t)
            diff[c] = (rotated.astype(np.int64) - original.astype(np.int64)).astype(
                TORUS_DTYPE
            )
        return GlweCiphertext(diff)

    def blind_rotate_batch(self, switched: list, test_poly: np.ndarray) -> list:
        """Blind-rotate up to ``vpe_rows`` ciphertexts together.

        ``switched`` holds ``(a_tilde, b_tilde)`` pairs from modulus
        switching.  All rows advance iteration-by-iteration sharing each
        BSK_i, matching the hardware's column-broadcast schedule.
        """
        if len(switched) > self.config.vpe_rows:
            raise ValueError(
                f"batch of {len(switched)} exceeds {self.config.vpe_rows} rows"
            )
        params = self.params
        accs = [
            glwe_trivial(test_poly, params.k).data for _, b_t in switched
        ]
        accs = [
            GlweCiphertext(
                np.stack([
                    DoublePointerRotator(row, self.config.fft_lanes).stream(-b_t)[1]
                    for row in acc
                ])
            )
            for acc, (_, b_t) in zip(accs, switched)
        ]
        table = self.keyset.bsk_table
        for i in range(params.n):
            # Rows whose switched mask element is zero skip this CMux.
            active = [
                (row, int(switched[row][0][i]))
                for row in range(len(switched))
                if int(switched[row][0][i]) != 0
            ]
            if not active:
                continue
            diffs = [self._rotated_difference(accs[row], t) for row, t in active]
            products = self.array.external_product_batch(table[i], params.beta_bits, diffs)
            for (row, _), product in zip(active, products):
                accs[row] = GlweCiphertext(accs[row].data + product.data)
        return accs

    def bootstrap_batch(self, cts: list, test_poly: np.ndarray) -> list:
        """Full MS -> BR -> SE -> KS for up to ``vpe_rows`` ciphertexts.

        The batch advances stage by stage (all ciphertexts modulus-switch
        before any blind rotation starts, and so on), which is the order
        the SW-scheduler lowers one group in and the order the static
        verifier's VER005 stage model legalises.  With the perf counters
        enabled each stage boundary emits an ordered event on the
        ``machine/stages`` track, named by the ISA op it corresponds to,
        so a functional run can be cross-checked against that model.
        """
        params = self.params
        counting = _COUNTERS.enabled
        if counting:
            _COUNTERS.event("machine/stages", "modulus_switch")
        switched = [modulus_switch(ct, params.N) for ct in cts]
        if counting:
            _COUNTERS.add_ops("machine/modulus_switches", len(cts))
            _COUNTERS.event("machine/stages", "blind_rotate")
        accs = self.blind_rotate_batch(switched, test_poly)
        if counting:
            _COUNTERS.add_ops("machine/blind_rotations", len(accs))
            _COUNTERS.event("machine/stages", "sample_extract")
        ext_a, ext_b = sample_extract_batch(np.stack([acc.data for acc in accs]))
        if counting:
            _COUNTERS.add_ops("machine/sample_extracts", len(accs))
            _COUNTERS.event("machine/stages", "key_switch")
        out_a, out_b = key_switch_batch(ext_a, ext_b, self.keyset.ksk)
        out = [LweCiphertext(out_a[r], out_b[r]) for r in range(len(accs))]
        if counting:
            _COUNTERS.add_ops("machine/key_switches", len(out))
        if _BUS.enabled:
            # True batch occupancy: ciphertexts dispatched vs. VPE rows
            # available.
            _BUS.publish("batch", "machine/bootstrap_batch",
                         value=float(len(out)),
                         capacity=self.config.vpe_rows)
        return out

    def bootstrap(self, ct: LweCiphertext, test_poly: np.ndarray) -> LweCiphertext:
        """Single-ciphertext convenience wrapper."""
        return self.bootstrap_batch([ct], test_poly)[0]
