"""Pluggable compute backends for the transform-domain hot path.

The functional substrate spends essentially all of its time in two
kernels: the (negacyclic-folded) FFT and the external-product einsum
contraction.  This module puts both behind a uniform
:class:`ComputeBackend` interface so a run can swap the engine without
touching any call site:

- ``numpy`` (default) - ``numpy.fft``, i.e. numpy's own C++ pocketfft
  (numpy >= 2.0; older numpy ships the C pocketfft and upcasts
  ``complex64``, which the backend casts back).  Always available, costs
  ~1 ms / 0.25 MB to import, and is ~10x faster than the butterfly
  engine at bootstrap shapes;
- ``radix2`` - the repo's own radix-2 butterfly engine
  (:mod:`repro.transforms.fft`): the reference oracle the fast engines
  are tested against and the functional twin of the pipelined-FFT
  hardware model.  Always available, never the production path;
- ``scipy`` - ``scipy.fft``, the same pocketfft as ``numpy`` with the
  same timings at our shapes.  Not the default because importing
  ``scipy.fft`` costs ~+25 MB RSS and ~+0.3 s for nothing in return, and
  scipy is an optional dependency; auto-detected when importable;
- ``pyfftw`` - FFTW via pyFFTW, auto-detected when importable.

Backends only replace the *transform engine*; the negacyclic
fold/twist, metric counting, decomposition, and rounding all stay in
the shared call sites, so every backend is counted and validated
identically.  Selection precedence: an explicit :func:`set_backend` /
:func:`use_backend` call, then the ``REPRO_BACKEND`` environment
variable, then the default (``numpy``).  The active backend's name is
stamped into bench JSON and telemetry events so every recorded number
names the engine that produced it.

Bit-compatibility: the external-product einsum runs with a fixed
reduction order (``optimize=False``) on every backend, and in
``complex128`` the bootstrap's float error stays far below the rounding
threshold, so full bootstraps are bit-identical across backends even
though raw FFT spectra may differ in the last ulps.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

__all__ = [
    "ComputeBackend",
    "NumpyBackend",
    "Radix2Backend",
    "ScipyBackend",
    "PyFFTWBackend",
    "register_backend",
    "registered_backends",
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
    """Uniform interface over the FFT + einsum hot path.

    Subclasses provide :meth:`fft`/:meth:`ifft` along the last axis of a
    complex array (power-of-two length, dtype-preserving: ``complex64``
    in means ``complex64`` out) and may override :meth:`einsum`.  The
    default einsum keeps numpy's fixed left-to-right reduction order so
    results stay bit-stable across backends.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    def fft(self, x: np.ndarray) -> np.ndarray:
        """Forward FFT along the last axis (batched over leading axes)."""
        raise NotImplementedError

    def ifft(self, x: np.ndarray) -> np.ndarray:
        """Inverse FFT along the last axis (``ifft(fft(x)) == x``)."""
        raise NotImplementedError

    def einsum(self, subscripts: str, *operands: np.ndarray) -> np.ndarray:
        """Tensor contraction with a fixed (unoptimized) reduction order."""
        return np.einsum(subscripts, *operands, optimize=False)

    def describe(self) -> str:
        """One-line human description for CLI output."""
        return f"{self.name} ({type(self).__name__})"


class NumpyBackend(ComputeBackend):
    """``numpy.fft`` (pocketfft): the production engine, always available."""

    name = "numpy"

    def __init__(self) -> None:
        # Late import: numpy >= 2 loads numpy.fft lazily, so `import repro`
        # stays as cheap as before for callers that never transform.
        import numpy.fft as _np_fft

        self._np_fft = _np_fft.fft
        self._np_ifft = _np_fft.ifft

    def fft(self, x: np.ndarray) -> np.ndarray:
        # numpy < 2 computes complex64 input in complex128; astype is a
        # no-op (copy=False) wherever the dtype already matches.
        return self._np_fft(x, axis=-1).astype(x.dtype, copy=False)

    def ifft(self, x: np.ndarray) -> np.ndarray:
        return self._np_ifft(x, axis=-1).astype(x.dtype, copy=False)


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


class ScipyBackend(ComputeBackend):
    """``scipy.fft`` (pocketfft).  Raises ImportError when scipy is absent."""

    name = "scipy"

    def __init__(self) -> None:
        import scipy.fft as _sp_fft  # gated: scipy is an optional dependency

        self._sp_fft = _sp_fft.fft
        self._sp_ifft = _sp_fft.ifft

    def fft(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self._sp_fft(x, axis=-1))

    def ifft(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self._sp_ifft(x, axis=-1))


class PyFFTWBackend(ComputeBackend):
    """FFTW via pyFFTW's numpy-compatible interface (optional dependency)."""

    name = "pyfftw"

    def __init__(self) -> None:
        import pyfftw.interfaces.numpy_fft as _fftw  # gated optional dep
        import pyfftw.interfaces.cache as _fftw_cache

        _fftw_cache.enable()  # keep FFTW plans across calls
        self._fftw_fft = _fftw.fft
        self._fftw_ifft = _fftw.ifft

    def fft(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self._fftw_fft(x, axis=-1))

    def ifft(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self._fftw_ifft(x, axis=-1))


def _probe_module(module: str) -> bool:
    """True when ``module`` is importable (without importing it fully)."""
    import importlib.util

    try:
        return importlib.util.find_spec(module) is not None
    except (ImportError, ValueError):
        return False


BackendFactory = Callable[[], ComputeBackend]

# name -> (factory, availability probe); insertion order is listing order.
_REGISTRY: Dict[str, Tuple[BackendFactory, Callable[[], bool]]] = {}
_INSTANCES: Dict[str, ComputeBackend] = {}
_ACTIVE: Optional[ComputeBackend] = None
_LOCK = threading.Lock()


def register_backend(
    name: str,
    factory: BackendFactory,
    probe: Optional[Callable[[], bool]] = None,
) -> None:
    """Register a backend factory under ``name``.

    ``probe`` reports availability without constructing the backend
    (e.g. "is scipy importable"); omitted means always available.
    """
    if probe is None:
        probe = _always_available
    with _LOCK:
        _REGISTRY[name] = (factory, probe)
        _INSTANCES.pop(name, None)


def _always_available() -> bool:
    return True


def _scipy_available() -> bool:
    return _probe_module("scipy.fft")


def _pyfftw_available() -> bool:
    return _probe_module("pyfftw")


register_backend("numpy", NumpyBackend)
register_backend("radix2", Radix2Backend)
register_backend("scipy", ScipyBackend, probe=_scipy_available)
register_backend("pyfftw", PyFFTWBackend, probe=_pyfftw_available)


def registered_backends() -> List[str]:
    """All registered backend names, available or not."""
    return list(_REGISTRY)


def available_backends() -> List[str]:
    """Backend names whose availability probe passes on this machine."""
    return [name for name, (_, probe) in _REGISTRY.items() if probe()]


def get_backend(name: str) -> ComputeBackend:
    """Return (constructing and caching if needed) the backend ``name``.

    Unknown names and registered-but-unavailable backends both raise
    ``ValueError`` listing the backends that *are* usable here, so a CLI
    typo fails with the fix in the message.
    """
    entry = _REGISTRY.get(name)
    avail = ", ".join(available_backends())
    if entry is None:
        raise ValueError(
            f"unknown compute backend {name!r}; available backends: {avail}"
        )
    factory, probe = entry
    with _LOCK:
        inst = _INSTANCES.get(name)
        if inst is not None:
            return inst
        if not probe():
            raise ValueError(
                f"compute backend {name!r} is not available on this machine "
                f"(optional dependency not importable); available backends: {avail}"
            )
        try:
            inst = factory()
        except ImportError as exc:
            raise ValueError(
                f"compute backend {name!r} failed to import ({exc}); "
                f"available backends: {avail}"
            ) from exc
        _INSTANCES[name] = inst
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
        inst = get_backend(name)
        _ACTIVE = inst
    return inst


def active_backend_name() -> str:
    """Name of the active backend (resolving it if needed)."""
    return active_backend().name


def set_backend(name: str) -> ComputeBackend:
    """Select the process-wide active backend; returns it."""
    global _ACTIVE
    inst = get_backend(name)
    _ACTIVE = inst
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
        if name is None:
            yield active_backend()
        else:
            yield set_backend(name)
    finally:
        _ACTIVE = prev
