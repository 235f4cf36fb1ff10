"""Shared-memory publication of the pre-transformed BSK spectrum table.

The BSK table (:attr:`repro.tfhe.keys.KeySet.bsk_table`) is the
only form of the bootstrapping key a keyset holds and by far the largest
object a bootstrap server holds - ``n * (k+1)*l_b * (k+1) * N/2`` complex
values.  Across worker processes, fork copy-on-write duplicates the pages as
soon as any worker touches them for writing.  Instead the driver
publishes the table **once** into a named
:mod:`multiprocessing.shared_memory` segment; every worker maps the
same physical pages read-only and makes the mapping its own
:class:`~repro.tfhe.keys.KeySet`'s table via
:meth:`~repro.tfhe.keys.KeySet.adopt_spectrum_table` (the pages it
inherited over fork are never written, so they cost nothing).  This is the
software analogue of a multi-chiplet accelerator sharing one key-store:
replicated compute lanes, single copy of the key material.

Lifecycle rules (POSIX):

- the **driver** creates the segment and is the only process that ever
  calls :meth:`SharedSpectrumTable.unlink`; it does so on pool
  shutdown, on worker crash, and from an ``atexit`` hook, so segments
  never outlive the run (see :func:`leaked_segments` and the SIGKILL
  drill in the tests);
- **workers** are forked, so they share the driver's
  :mod:`multiprocessing.resource_tracker` process; their attaches
  collapse into the driver's single registration and the driver's
  unlink clears it (see :meth:`SharedSpectrumTable.attach` for why
  this rules out the ``spawn`` start method).
"""

from __future__ import annotations

import os
import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import List, Optional, Tuple, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from ..tfhe.keys import KeySet

__all__ = [
    "SpectrumHandle",
    "SharedSpectrumTable",
    "SEGMENT_PREFIX",
    "leaked_segments",
]

#: Prefix of every segment this module creates; the leak check and the
#: CI drill look for it in /dev/shm.
SEGMENT_PREFIX = "repro-bsk-"


@dataclass(frozen=True)
class SpectrumHandle:
    """Picklable descriptor a worker needs to map a published table."""

    name: str
    shape: Tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= int(dim)
        return count * np.dtype(self.dtype).itemsize


def _segment_name() -> str:
    """Collision-safe segment name carrying the owning pid for triage."""
    return f"{SEGMENT_PREFIX}{os.getpid()}-{secrets.token_hex(4)}"


def leaked_segments(prefix: str = SEGMENT_PREFIX) -> List[str]:
    """Names of live /dev/shm segments created by this module.

    A clean pool shutdown (and a crashed one) must leave this empty;
    the hygiene test asserts exactly that.  Returns ``[]`` on platforms
    without a /dev/shm filesystem.
    """
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):
        return []
    return sorted(n for n in os.listdir(shm_dir) if n.startswith(prefix))


class SharedSpectrumTable:
    """One BSK spectrum table living in a named shared-memory segment.

    Construct via :meth:`publish` (driver side) or :meth:`attach`
    (worker side).  ``array`` is the zero-copy ndarray view over the
    segment - read-only on workers so no lane can corrupt the shared
    key material.
    """

    def __init__(
        self,
        handle: SpectrumHandle,
        shm: shared_memory.SharedMemory,
        array: np.ndarray,
        owner: bool,
    ) -> None:
        self.handle = handle
        self._shm: Optional[shared_memory.SharedMemory] = shm
        self.array: Optional[np.ndarray] = array
        self.owner = owner
        self._unlinked = False

    @classmethod
    def publish(cls, keyset: "KeySet") -> "SharedSpectrumTable":
        """Driver side: copy the keyset's table into SHM."""
        table = keyset.bsk_table
        shm = shared_memory.SharedMemory(create=True, size=table.nbytes, name=_segment_name())
        arr: np.ndarray = np.ndarray(table.shape, dtype=table.dtype, buffer=shm.buf)
        arr[...] = table
        handle = SpectrumHandle(name=shm.name, shape=tuple(table.shape), dtype=table.dtype.str)
        return cls(handle, shm, arr, owner=True)

    @classmethod
    def attach(cls, handle: SpectrumHandle) -> "SharedSpectrumTable":
        """Worker side: map the published segment zero-copy (read-only).

        CPython's resource tracker registers every attach.  Forked
        workers inherit the driver's tracker process, whose cache is a
        per-name *set*: the attach collapses into the driver's own
        registration, and the driver's unlink removes it - so workers
        must NOT unregister (that would strip the driver's entry and
        make the tracker daemon print KeyError noise at shutdown).  A
        worker started by ``spawn`` would get its own tracker and
        wrongly unlink on exit; :class:`~repro.pool.pool.BootstrapPool`
        is fork-only for exactly this reason.
        """
        shm = shared_memory.SharedMemory(name=handle.name)
        arr: np.ndarray = np.ndarray(handle.shape, dtype=np.dtype(handle.dtype), buffer=shm.buf)
        arr.flags.writeable = False
        return cls(handle, shm, arr, owner=False)

    def install(self, keyset: "KeySet") -> np.ndarray:
        """Make the mapped table ``keyset``'s table (its own is released)."""
        if self.array is None:
            raise RuntimeError("shared spectrum table already closed")
        return keyset.adopt_spectrum_table(self.array)

    def close(self, keyset: Optional["KeySet"] = None) -> None:
        """Drop the local mapping (both sides); optionally hand ``keyset`` back.

        The ndarray view keeps the mapping's buffer exported, so every
        reference must be dropped before the segment can be closed.  Pass
        the keyset the table was installed into and it gets a private copy
        first (the table is its only BSK).  A still-exported buffer is
        tolerated - the OS reclaims the mapping at process exit - because
        close must never mask the caller's error.
        """
        if keyset is not None and keyset.bsk_table is self.array:
            keyset.adopt_spectrum_table(self.array.copy())
        self.array = None
        if self._shm is not None:
            try:
                self._shm.close()
            except BufferError:
                pass  # a live view still exports the buffer; exit reclaims it
            self._shm = None

    def unlink(self) -> None:
        """Remove the segment name (driver only; idempotent)."""
        if not self.owner or self._unlinked:
            return
        self._unlinked = True
        if self._shm is not None:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass
            return
        # Already closed locally: re-attach just to remove the name.
        try:
            tmp = shared_memory.SharedMemory(name=self.handle.name)
        except FileNotFoundError:
            return
        tmp.unlink()
        tmp.close()

    def __enter__(self) -> "SharedSpectrumTable":
        return self

    def __exit__(self, *exc: object) -> None:
        self.unlink()
        self.close()
