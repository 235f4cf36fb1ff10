"""Multi-worker sharded bootstrap execution (the multi-lane analogue).

``repro.pool`` scales the batch-first bootstrap pipeline across worker
processes: one shared-memory copy of the pre-transformed BSK spectrum
(:mod:`~repro.pool.shm`), N forked lanes running the real pipeline
(:mod:`~repro.pool.pool`), and a scaling harness
(:mod:`~repro.pool.scaling`) behind ``repro pool``.
Results are bit-identical to the single-process batch in ``complex128``.
"""

from .pool import DEFAULT_TASK_TIMEOUT_S, BootstrapPool, PoolWorkerLost
from .scaling import PoolScalingResult, resolve_params, run_pool_scaling
from .shm import SEGMENT_PREFIX, SharedSpectrumTable, SpectrumHandle, leaked_segments

__all__ = [
    "BootstrapPool",
    "PoolWorkerLost",
    "DEFAULT_TASK_TIMEOUT_S",
    "PoolScalingResult",
    "run_pool_scaling",
    "resolve_params",
    "SharedSpectrumTable",
    "SpectrumHandle",
    "SEGMENT_PREFIX",
    "leaked_segments",
]
