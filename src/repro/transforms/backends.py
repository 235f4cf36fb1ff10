"""Pluggable compute backends for the transform-domain hot path.

The functional substrate spends most of its time in the
(negacyclic-folded) FFT.  This module puts it behind a uniform
:class:`ComputeBackend` interface so a run can swap the engine without
touching any call site:

- ``numpy`` (default) - numpy's pocketfft.  Costs ~1 ms / 0.25 MB
  to import and is ~10x faster than the butterfly engine at bootstrap
  shapes;
- ``radix2`` - the repo's own radix-2 butterfly engine
  (:mod:`repro.transforms.fft`): the reference oracle the production
  engine is tested against and the functional twin of the pipelined-FFT
  hardware model.  Never the production path.

Backends only replace the *transform engine*; the negacyclic
fold/twist, metric counting, decomposition, and rounding all stay in
the shared call sites, so every backend is counted and validated
identically.  Selection precedence: an explicit :func:`set_backend` /
:func:`use_backend` call, then the ``REPRO_BACKEND`` environment
variable, then the default (``numpy``).  The active backend's name is
stamped into bench JSON and telemetry events so every recorded number
names the engine that produced it.

Bit-compatibility: the external product's spectrum MAC is plain numpy
in a fixed row order on every backend
(:func:`repro.tfhe.ggsw.external_product_spectrum_batch`), and in
``complex128`` the bootstrap's float error stays far below the rounding
threshold, so full bootstraps are bit-identical across backends even
though raw FFT spectra may differ in the last ulps.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

import numpy as np

__all__ = [
    "ComputeBackend",
    "NumpyBackend",
    "Radix2Backend",
    "available_backends",
    "get_backend",
    "active_backend",
    "active_backend_name",
    "set_backend",
    "reset_backend",
    "use_backend",
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
]

#: Environment variable consulted when no backend was selected explicitly.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Name of the backend used when neither code nor environment selects one.
DEFAULT_BACKEND = "numpy"


class ComputeBackend:
    """Uniform interface over the FFT hot path.

    Subclasses provide :meth:`fft`/:meth:`ifft` along the last axis of a
    ``complex128`` array (power-of-two length).
    """

    #: Name :func:`get_backend` knows it by; subclasses override.
    name: str = "abstract"

    def fft(self, x: np.ndarray) -> np.ndarray:
        """Forward FFT along the last axis (batched over leading axes)."""
        raise NotImplementedError

    def ifft(self, x: np.ndarray) -> np.ndarray:
        """Inverse FFT along the last axis (``ifft(fft(x)) == x``)."""
        raise NotImplementedError

    def einsum(self, subscripts: str, *operands: np.ndarray) -> np.ndarray:
        """Tensor contraction with a fixed (unoptimized) reduction order.

        Nothing in ``src/`` calls it since the spectrum MAC went row-ordered;
        it stays for the repo benchmark's ``backends.einsum_mac_ms`` probe
        (``benchmarks/e2e/pbs.py``) until ROADMAP item 1 re-points that.
        """
        return np.einsum(subscripts, *operands, optimize=False)


class NumpyBackend(ComputeBackend):
    """numpy's pocketfft: the production engine.

    Calls the gufuncs ``np.fft.fft`` / ``ifft`` end in (numpy >= 2.0) with
    their scale arguments: ``np.fft``'s spectra bit for bit, without its
    Python wrapper.  The output is fresh, C-contiguous, of the input dtype.
    """

    name = "numpy"

    def __init__(self) -> None:
        # Late import: numpy >= 2 loads numpy.fft lazily, so `import repro`
        # stays as cheap as before for callers that never transform.
        from numpy.fft import _pocketfft_umath as pfu

        self._fft = pfu.fft
        self._ifft = pfu.ifft
        self._inverse_scales: Dict[tuple, np.floating] = {}

    def fft(self, x: np.ndarray) -> np.ndarray:
        return self._fft(x, 1, out=np.empty(x.shape, dtype=x.dtype))

    def ifft(self, x: np.ndarray) -> np.ndarray:
        # 1/n in the input's real dtype, as `np.fft.ifft` passes it (a Python
        # float would run complex64 input through the complex128 loop).
        key = (x.shape[-1], x.dtype)
        scale = self._inverse_scales.get(key)
        if scale is None:
            scale = self._inverse_scales[key] = np.reciprocal(key[0], dtype=x.real.dtype)
        return self._ifft(x, scale, out=np.empty(x.shape, dtype=x.dtype))


class Radix2Backend(ComputeBackend):
    """The repo's own radix-2 butterfly engine: test oracle and hardware twin."""

    name = "radix2"

    def __init__(self) -> None:
        # Late import: backends.py is imported by fft.py at module load,
        # so the core engine is only resolved once an instance is built
        # (which happens after fft.py has finished importing).
        from .fft import _fft_core, _ifft_core

        self._fft_core = _fft_core
        self._ifft_core = _ifft_core

    def fft(self, x: np.ndarray) -> np.ndarray:
        return self._fft_core(x)

    def ifft(self, x: np.ndarray) -> np.ndarray:
        return self._ifft_core(x)


# name -> class; insertion order is listing order.
_BACKENDS = {"numpy": NumpyBackend, "radix2": Radix2Backend}
_INSTANCES: Dict[str, ComputeBackend] = {}
_ACTIVE: Optional[ComputeBackend] = None
_LOCK = threading.Lock()


def available_backends() -> List[str]:
    """Names :func:`get_backend` accepts."""
    return list(_BACKENDS)


def get_backend(name: str) -> ComputeBackend:
    """Return (constructing and caching if needed) the backend ``name``.

    Unknown names raise ``ValueError`` listing the backends that exist,
    so a CLI typo fails with the fix in the message.
    """
    if name not in _BACKENDS:
        raise ValueError(
            f"unknown compute backend {name!r}; available backends: "
            + ", ".join(_BACKENDS)
        )
    with _LOCK:
        inst = _INSTANCES.get(name)
        if inst is None:
            inst = _INSTANCES[name] = _BACKENDS[name]()
        return inst


def active_backend() -> ComputeBackend:
    """The backend every transform call dispatches to.

    Resolution order: :func:`set_backend` / :func:`use_backend`, then the
    ``REPRO_BACKEND`` environment variable, then ``numpy``.  The env
    variable is read lazily on first use (and again after
    :func:`reset_backend`), so tests can monkeypatch it.
    """
    global _ACTIVE
    inst = _ACTIVE
    if inst is None:
        name = os.environ.get(BACKEND_ENV_VAR, "").strip() or DEFAULT_BACKEND
        inst = _ACTIVE = get_backend(name)
    return inst


def active_backend_name() -> str:
    """Name of the active backend (resolving it if needed)."""
    return active_backend().name


def set_backend(name: str) -> ComputeBackend:
    """Select the process-wide active backend; returns it."""
    global _ACTIVE
    inst = _ACTIVE = get_backend(name)
    return inst


def reset_backend() -> None:
    """Drop the explicit selection; next use re-reads ``REPRO_BACKEND``."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def use_backend(name: Optional[str]) -> Iterator[ComputeBackend]:
    """Scoped backend selection (``None`` keeps the current resolution)."""
    global _ACTIVE
    prev = _ACTIVE
    try:
        yield active_backend() if name is None else set_backend(name)
    finally:
        _ACTIVE = prev
