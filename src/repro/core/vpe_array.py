"""2D systolic VPE array: mapping and utilization.

The array maps blind rotation as (Section V-A2):

- rows <-> independent LWE ciphertexts (bootstraps in flight), all
  sharing the same streamed BSK columns;
- columns <-> the ``k+1`` output columns of ``BSK_i``, all sharing the
  row's decomposed ACC-input stream;
- each VPE holds its output column's accumulator (POLY-ACC-REG) in the
  transform domain until all ``(k+1)*l_b`` partial products have landed
  (output-stationary dataflow).

The functional counterpart is the scheme substrate's batch axis: the
rows of :func:`~repro.tfhe.bootstrap.blind_rotate_batch` share each
BSK row the way the array's rows share each streamed ``BSK_i``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..params import TFHEParams
from .accelerator import MorphlingConfig

__all__ = ["ArrayMapping", "map_external_product"]


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

