"""Throughput-scaling harness over :class:`~repro.pool.pool.BootstrapPool`.

Runs the same batched-bootstrap workload single-process and under pools
of increasing width, reporting bootstraps/s and the scaling ratio per
worker count - the software analogue of the multi-chiplet scaling
sweep: identical lanes, shared key material, near-linear throughput.
Backs the ``repro pool`` CLI verb; measured ratios on set I are in
``docs/perf.md`` ("Pool on set I").
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..params import PARAM_SETS, TEST_PARAMS, TFHEParams
from ..tfhe.bootstrap import programmable_bootstrap_batch
from ..tfhe.ops import TfheContext
from ..transforms import backends as _backends
from .pool import BootstrapPool

__all__ = ["PoolScalingResult", "run_pool_scaling", "resolve_params"]


def resolve_params(name: str) -> TFHEParams:
    """Parameter set by name; ``"test"`` is the fast functional set."""
    if name == "test":
        return TEST_PARAMS
    try:
        return PARAM_SETS[name]
    except KeyError:
        options = ", ".join(["test"] + sorted(PARAM_SETS))
        raise ValueError(f"unknown parameter set {name!r}; options: {options}")


@dataclass
class PoolScalingResult:
    """One scaling sweep: single-process baseline + per-width pool rows."""

    param_set: str
    backend: str
    batch: int
    rounds: int
    cpus: int
    single_bootstraps_per_s: float
    entries: List[Dict[str, Any]] = field(default_factory=list)

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "param_set": self.param_set,
            "backend": self.backend,
            "batch": self.batch,
            "rounds": self.rounds,
            "cpus": self.cpus,
            "single_bootstraps_per_s": round(self.single_bootstraps_per_s, 2),
            "entries": [
                {
                    "workers": e["workers"],
                    "bootstraps_per_s": round(e["bootstraps_per_s"], 2),
                    "scaling": round(e["scaling"], 3),
                }
                for e in self.entries
            ],
        }

    def render_text(self) -> str:
        lines = [
            f"pool scaling - set={self.param_set} backend={self.backend} "
            f"batch={self.batch} cpus={self.cpus}",
            f"  single-process: {self.single_bootstraps_per_s:9.1f} bootstraps/s",
            f"  {'workers':>7}  {'bootstraps/s':>12}  {'scaling':>7}",
        ]
        for e in self.entries:
            lines.append(
                f"  {e['workers']:>7}  {e['bootstraps_per_s']:>12.1f}  "
                f"{e['scaling']:>6.2f}x"
            )
        return "\n".join(lines)


def _best_rate(batch: int, rounds: int, run: Any) -> float:
    """Best-of-``rounds`` throughput of ``run()`` in bootstraps/s."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return batch / best


def run_pool_scaling(
    param_set: str = "test",
    workers: Sequence[int] = (1, 2, 4),
    batch: int = 16,
    rounds: int = 3,
    backend: Optional[str] = None,
    seed: int = 3,
) -> PoolScalingResult:
    """Measure sharded-bootstrap throughput at each pool width.

    The single-process baseline and every pool lane run the same
    backend (resolved once, so the result names exactly one engine) on
    a warmed keyset - the shared-memory table publish is part of pool
    startup, never of the measured window.
    """
    params = resolve_params(param_set)
    backend_name = (
        _backends.get_backend(backend).name
        if backend is not None
        else _backends.active_backend_name()
    )
    ctx = TfheContext.create(params, seed=seed)
    rng = np.random.default_rng(seed)
    messages = rng.integers(0, 4, size=batch)
    cts = [ctx.encrypt(int(m), 8) for m in messages]
    tp = ctx._lut_test_poly(lambda x: x, 8)

    with _backends.use_backend(backend_name):
        programmable_bootstrap_batch(cts, tp, ctx.keyset)
        single = _best_rate(
            batch, rounds, lambda: programmable_bootstrap_batch(cts, tp, ctx.keyset)
        )

    result = PoolScalingResult(
        param_set=param_set, backend=backend_name,
        batch=batch, rounds=rounds, cpus=os.cpu_count() or 1,
        single_bootstraps_per_s=single,
    )
    for n in workers:
        with BootstrapPool(ctx.keyset, workers=n, backend=backend_name) as pool:
            pool.bootstrap_batch(cts, tp)  # warm every lane
            rate = _best_rate(
                batch, rounds, lambda: pool.bootstrap_batch(cts, tp)
            )
        result.entries.append({
            "workers": int(n),
            "bootstraps_per_s": rate,
            "scaling": rate / single if single else 0.0,
        })
    return result
