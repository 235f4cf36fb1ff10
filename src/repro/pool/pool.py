"""Process-pool sharding of the batched bootstrap pipeline.

:class:`BootstrapPool` is the multi-lane execution layer over
:func:`repro.tfhe.bootstrap.programmable_bootstrap_batch`: a batch of
``B`` ciphertexts is split into contiguous shards, one per worker
process, and every worker runs the full MS -> BR -> SE -> KS pipeline on
its shard.  Because the batched kernel is elementwise along the batch
axis with a fixed MAC row order, a sharded run is bit-identical
to the single-process batch - the pool changes *where* samples run,
never *what* they compute.

Key-material economics (the whole point): the driver publishes the
pre-transformed BSK spectrum table once into shared memory
(:mod:`repro.pool.shm`); each worker maps it zero-copy and adopts it
into its keyset cache, and so does the driver once the copy is made, so
the table exists once per machine.  Closing the pool hands that keyset
a private copy back.  No worker ever runs the FFT-heavy table
pre-transform - asserted in tests via the ``transforms_fft_total``
counter each worker reports with its results.

Workers are forked (the keyset rides fork inheritance; platforms
without fork get a clear error), each drains its own task queue, and
all report into one result queue.  Each lane starts from clean
telemetry with only the metrics registry on, and its counters ride back
in every result message (:meth:`BootstrapPool.worker_stats`).

Crash safety: a worker dying (e.g. SIGKILL) is detected while waiting
for its results; the pool shuts down and the shared segment is
unlinked - on clean exits, on crashes, and from an ``atexit`` hook.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import queue as queue_mod
import signal
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..tfhe.keys import KeySet
from ..tfhe.lwe import LweCiphertext
from ..transforms import backends as _backends
from .shm import SharedSpectrumTable, SpectrumHandle

__all__ = ["BootstrapPool", "PoolWorkerLost", "DEFAULT_TASK_TIMEOUT_S"]

#: Ceiling on waiting for one shard result before declaring the worker
#: lost even though the process object still looks alive.
DEFAULT_TASK_TIMEOUT_S = 120.0

_POLL_S = 0.05


class PoolWorkerLost(RuntimeError):
    """A worker process died before returning its shard."""

    def __init__(self, worker_id: str, message: str) -> None:
        super().__init__(message)
        self.worker_id = worker_id


def _counter_value(name: str, **labels: Any) -> float:
    """Current value of a registry counter series (0.0 when absent)."""
    from ..observability import REGISTRY

    metric = REGISTRY.get(name)
    if metric is None:
        return 0.0
    try:
        return float(metric.value(**labels))
    except Exception:
        return 0.0


def _worker_stats() -> Dict[str, float]:
    """Telemetry counters a worker ships back with every result."""
    return {
        "pid": float(os.getpid()),
        "fft_forward": _counter_value("transforms_fft_total", direction="forward"),
        "fft_inverse": _counter_value("transforms_fft_total", direction="inverse"),
        "bootstraps": _counter_value("tfhe_bootstraps_total"),
    }


def _pool_worker_main(
    worker_id: str,
    keyset: KeySet,
    handle: SpectrumHandle,
    backend_name: str,
    task_q: Any,
    result_q: Any,
    kill_after_jobs: Optional[int],
) -> None:
    """One pool lane: map the shared table, then drain the task queue.

    Module-level so it is importable in children.  Tasks are
    ``(job_id, shard_idx, a, b, tps)`` tuples; ``None`` stops the lane.
    ``kill_after_jobs`` is the crash drill: after that many
    completed jobs the lane SIGKILLs itself (no cleanup), exercising
    the driver's crash detection and segment unlink.
    """
    from .. import observability as obs
    from ..tfhe.bootstrap import programmable_bootstrap_batch

    # Nothing inherited from the driver's telemetry: its bus subscribers
    # write the driver's files and its buffers hold the driver's data.
    # Only the registry comes back on, so the counters in every result
    # message are this lane's own.
    obs.BUS._subscribers = ()
    obs.disable()
    obs.reset()
    obs.REGISTRY.enable()
    _backends.set_backend(backend_name)
    # Adopting replaces the table inherited over fork (never written, so it
    # cost nothing): the only image this process holds is the shared one.
    shared = SharedSpectrumTable.attach(handle)
    shared.install(keyset)

    done = 0
    while True:
        task = task_q.get()
        if task is None:
            result_q.put(("bye", worker_id, None, None, None, None, _worker_stats()))
            break
        job_id, shard_idx, a, b, tps = task
        cts = [LweCiphertext(a[r], b[r]) for r in range(a.shape[0])]
        outs = programmable_bootstrap_batch(cts, tps, keyset)
        out_a = np.stack([ct.a for ct in outs])
        out_b = np.asarray([ct.b for ct in outs])
        result_q.put(
            ("result", worker_id, job_id, shard_idx, out_a, out_b, _worker_stats())
        )
        done += 1
        if kill_after_jobs is not None and done >= kill_after_jobs:
            # Crash drill: flush the sent result (the feeder thread
            # is async), then die without any cleanup.
            result_q.close()
            result_q.join_thread()
            os.kill(os.getpid(), signal.SIGKILL)


class BootstrapPool:
    """N forked lanes sharing one shared-memory BSK spectrum table.

    Usage::

        with BootstrapPool(keyset, workers=4) as pool:
            outs = pool.bootstrap_batch(cts, test_poly)

    ``backend`` picks the compute backend every lane runs
    (:mod:`repro.transforms.backends`; ``None`` resolves the driver's
    active backend, honouring ``REPRO_BACKEND``).
    """

    def __init__(
        self,
        keyset: KeySet,
        workers: int = 2,
        backend: Optional[str] = None,
        task_timeout_s: float = DEFAULT_TASK_TIMEOUT_S,
        kill_after_jobs: Optional[Dict[int, int]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.keyset = keyset
        self.workers = workers
        # Resolve eagerly so unknown names fail at construction, in the
        # driver, with the available-backend list in the message.
        self.backend = (
            _backends.get_backend(backend).name
            if backend is not None
            else _backends.active_backend_name()
        )
        self.task_timeout_s = task_timeout_s
        self._kill_after_jobs = dict(kill_after_jobs or {})
        self._procs: List[multiprocessing.process.BaseProcess] = []
        self._task_qs: List[Any] = []
        self._result_q: Any = None
        self._shared: Optional[SharedSpectrumTable] = None
        self._job_counter = 0
        self._last_stats: Dict[str, Dict[str, float]] = {}
        self._closed = False

    # -- lifecycle ----------------------------------------------------
    def start(self) -> "BootstrapPool":
        """Publish the shared table and fork the lanes (idempotent)."""
        if self._procs:
            return self
        if self._closed:
            raise RuntimeError("pool already closed")
        try:
            mp = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - Windows only
            raise RuntimeError(
                "BootstrapPool requires the fork start method "
                "(POSIX); this platform does not provide it"
            ) from exc

        self._shared = SharedSpectrumTable.publish(self.keyset)
        # One image on the driver too: its keyset reads the segment from
        # here on, and close() gives it a private copy back.
        self._shared.install(self.keyset)
        atexit.register(self._atexit_cleanup)
        self._result_q = mp.Queue()
        for i in range(self.workers):
            task_q = mp.Queue()
            proc = mp.Process(
                target=_pool_worker_main,
                args=(
                    f"w{i}", self.keyset, self._shared.handle, self.backend,
                    task_q, self._result_q,
                    self._kill_after_jobs.get(i),
                ),
            )
            proc.daemon = True
            proc.start()
            self._task_qs.append(task_q)
            self._procs.append(proc)
        return self

    def __enter__(self) -> "BootstrapPool":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _atexit_cleanup(self) -> None:
        try:
            self.close()
        except Exception:
            pass  # interpreter shutdown: never raise from atexit

    def close(self) -> None:
        """Stop the lanes and release the shared segment (idempotent).

        The segment is unlinked *before* joining so even a wedged or
        crashed lane cannot leave the name behind; mapped pages stay
        valid in every process until it exits.
        """
        if self._closed:
            return
        self._closed = True
        if self._shared is not None:
            self._shared.unlink()
        for task_q in self._task_qs:
            try:
                task_q.put(None)
            except Exception:
                pass
        for proc in self._procs:
            proc.join(timeout=10.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        if self._shared is not None:
            self._shared.close(self.keyset)
            self._shared = None
        for task_q in self._task_qs:
            try:
                task_q.close()
            except Exception:
                pass
        self._task_qs = []
        if self._result_q is not None:
            try:
                self._result_q.close()
            except Exception:
                pass
            self._result_q = None
        self._procs = []

    # -- execution ----------------------------------------------------
    def _live_worker_ids(self) -> List[int]:
        return [i for i, p in enumerate(self._procs) if p.is_alive()]

    def bootstrap_batch(
        self,
        cts: Sequence[LweCiphertext],
        test_polys: np.ndarray,
    ) -> List[LweCiphertext]:
        """Shard ``cts`` across the lanes; bit-identical to one big batch.

        ``test_polys`` is one shared ``(N,)`` LUT or a per-sample
        ``(B, N)`` stack (sliced with its shard).  Results come back in
        input order.  Raises :class:`PoolWorkerLost` if a lane dies
        mid-job (the pool is closed and the segment unlinked first).
        """
        if not self._procs:
            self.start()
        cts = list(cts)
        batch = len(cts)
        if batch == 0:
            return []
        a = np.stack([ct.a for ct in cts])
        b = np.asarray([ct.b for ct in cts])
        tps = np.asarray(test_polys)
        per_sample_lut = tps.ndim == 2
        job_id = self._job_counter
        self._job_counter += 1

        shards = np.array_split(np.arange(batch), min(self.workers, batch))
        pending: Dict[int, np.ndarray] = {}
        for shard_idx, rows in enumerate(shards):
            if rows.size == 0:
                continue
            shard_tps = tps[rows] if per_sample_lut else tps
            self._task_qs[shard_idx].put(
                (job_id, shard_idx, a[rows], b[rows], shard_tps)
            )
            pending[shard_idx] = rows

        out_a = np.empty_like(a)
        out_b = np.empty_like(b)
        waited = 0.0
        dead_grace = 0.0
        while pending:
            try:
                kind, worker_id, rj, shard_idx, ra, rb, stats = self._result_q.get(
                    timeout=_POLL_S
                )
            except queue_mod.Empty:
                waited += _POLL_S
                dead = [
                    i for i in pending
                    if not self._procs[i].is_alive()
                ]
                if dead:
                    # A result the lane flushed before dying may still be
                    # in the pipe; drain briefly before declaring it lost.
                    dead_grace += _POLL_S
                    if dead_grace >= 1.0:
                        lost = f"w{dead[0]}"
                        self.close()
                        raise PoolWorkerLost(
                            lost,
                            f"pool worker {lost} died before returning its "
                            f"shard (job {job_id}); shared segment unlinked",
                        )
                if waited >= self.task_timeout_s:
                    self.close()
                    raise PoolWorkerLost(
                        "unknown",
                        f"timed out after {self.task_timeout_s:.0f}s waiting "
                        f"for shard results (job {job_id})",
                    )
                continue
            if stats is not None:
                self._last_stats[worker_id] = stats
            if kind != "result" or rj != job_id:
                continue  # late messages from a previous job / shutdown
            rows = pending.pop(shard_idx)
            out_a[rows] = ra
            out_b[rows] = rb
        return [LweCiphertext(out_a[r], out_b[r]) for r in range(batch)]

    def worker_stats(self) -> Dict[str, Dict[str, float]]:
        """Latest per-worker counters (fft counts, bootstraps, pid)."""
        return {k: dict(v) for k, v in self._last_stats.items()}
