"""Benchmark-harness shim: the one transform engine's name and ``einsum``.

The substrate has one engine, pocketfft, called from
:mod:`repro.transforms.negacyclic`; no ``src/`` module imports this one.
``benchmarks/e2e/pbs.py`` stamps :func:`active_backend_name` into its
``info`` and times :func:`active_backend`'s ``einsum`` in its
``backends.einsum_mac_ms`` probe.  ROADMAP item 1(b) re-points that
probe and deletes this module.
"""

from __future__ import annotations

import numpy as np


class _Numpy:
    name = "numpy"

    @staticmethod
    def einsum(subscripts: str, *operands: np.ndarray) -> np.ndarray:
        """Tensor contraction with a fixed (unoptimized) reduction order."""
        return np.einsum(subscripts, *operands, optimize=False)


def active_backend() -> _Numpy:
    return _Numpy()


def active_backend_name() -> str:
    return _Numpy.name
