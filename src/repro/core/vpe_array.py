"""2D systolic VPE array: mapping, utilization, and a functional model.

The array maps blind rotation as (Section V-A2):

- rows <-> independent LWE ciphertexts (bootstraps in flight), all
  sharing the same streamed BSK columns;
- columns <-> the ``k+1`` output columns of ``BSK_i``, all sharing the
  row's decomposed ACC-input stream;
- each VPE holds its output column's accumulator (POLY-ACC-REG) in the
  transform domain until all ``(k+1)*l_b`` partial products have landed
  (output-stationary dataflow).

``VpeArray.external_product_batch`` is the functional counterpart: it
computes a batch of external products exactly the way the array does -
per-element transform-domain MACs with per-column accumulators - and is
tested against the reference scheme implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..params import TFHEParams
from ..tfhe.ggsw import external_product_spectrum_batch
from ..tfhe.glwe import GlweCiphertext
from .accelerator import MorphlingConfig

__all__ = ["ArrayMapping", "map_external_product", "VpeArray"]


@dataclass(frozen=True)
class ArrayMapping:
    """How one external-product wave occupies the array."""

    rows_used: int
    cols_used: int
    rows_total: int
    cols_total: int
    column_passes: int  # waves needed when k+1 > physical columns

    @property
    def utilization(self) -> float:
        """Fraction of VPEs doing useful MACs."""
        used = self.rows_used * self.cols_used
        # On the last column pass fewer columns may be active; weight it.
        full = self.rows_total * self.cols_total * self.column_passes
        return used * self.column_passes / full if full else 0.0


def map_external_product(config: MorphlingConfig, params: TFHEParams) -> ArrayMapping:
    """Place one iteration of blind rotation onto the VPE array.

    ``k+1`` output columns fold onto ``vpe_cols`` physical columns; when
    ``k+1 < vpe_cols`` the flexible-accumulation adder (Section V-A2)
    lets spare columns split the l_b levels, so columns never idle as
    long as ``(k+1)*l_b >= vpe_cols``.
    """
    out_cols = params.k + 1
    passes = -(-out_cols // config.vpe_cols)
    cols_used = min(out_cols, config.vpe_cols)
    if out_cols < config.vpe_cols and (params.k + 1) * params.l_b >= config.vpe_cols:
        cols_used = config.vpe_cols  # level-split keeps spare columns busy
    return ArrayMapping(
        rows_used=config.vpe_rows,
        cols_used=cols_used,
        rows_total=config.vpe_rows,
        cols_total=config.vpe_cols,
        column_passes=passes,
    )


class VpeArray:
    """Functional model of the output-stationary systolic array.

    Processes up to ``rows`` ciphertexts against one GGSW (the BSK of the
    current iteration), keeping per-(row, column) accumulators in the
    transform domain exactly like the hardware's POLY-ACC-REG pairs.
    """

    def __init__(self, rows: int = 4, cols: int = 4):
        if rows < 1 or cols < 1:
            raise ValueError("array must be at least 1x1")
        self.rows = rows
        self.cols = cols

    def external_product_batch(self, row_spec: np.ndarray, beta_bits: int, acc_inputs: list) -> list:
        """External products of every row's GLWE against one shared BSK_i.

        ``row_spec`` is BSK_i as Private-A2 holds it: its row of the
        keyset's spectrum table (or a standalone GGSW's ``spectrum()``).
        Each row streams its decomposed input spectra left-to-right; the
        BSK column spectra stream top-to-bottom and are *shared by all
        rows* - the BSK reuse the paper exploits.  Output accumulators
        leave the array through one inverse transform per column.

        The MAC itself is the scheme substrate's shared batched
        row-ordered kernel
        (:func:`~repro.tfhe.ggsw.external_product_spectrum_batch`): the
        functional machine and the scheme path execute literally the
        same contraction, with the array model contributing the
        row/column capacity checks.
        """
        if len(acc_inputs) > self.rows:
            raise ValueError(
                f"batch of {len(acc_inputs)} exceeds {self.rows} array rows"
            )
        rows, kp1, half = row_spec.shape
        if kp1 > self.cols:
            raise ValueError(
                f"k+1 = {kp1} output columns exceed {self.cols} array columns"
            )
        for glwe in acc_inputs:
            if glwe.N != 2 * half or glwe.k + 1 != kp1:
                raise ValueError("GLWE operand does not match the GGSW")
        stacked = np.stack([glwe.data for glwe in acc_inputs])
        out = external_product_spectrum_batch(row_spec, stacked, beta_bits, rows // kp1)
        return [GlweCiphertext(out[r]) for r in range(len(acc_inputs))]
