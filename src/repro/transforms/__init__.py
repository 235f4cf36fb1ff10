"""Transform substrate: FFT backends and negacyclic folding.

Functional transforms (:mod:`~repro.transforms.fft`,
:mod:`~repro.transforms.negacyclic`) back the TFHE scheme substrate; the
pipelined hardware model (:mod:`~repro.transforms.pipeline_model`) backs
the cycle simulator and is imported from its module, so the substrate
does not load it.
"""

from .backends import (
    ComputeBackend,
    active_backend,
    active_backend_name,
    available_backends,
    get_backend,
    reset_backend,
    set_backend,
    use_backend,
)
from .fft import (
    bit_reverse_permutation,
    fft,
    fft_complex_multiplies,
    fft_real_multiplies,
    fft_stage_count,
    ifft,
)
from .negacyclic import (
    negacyclic_fft,
    transform_length,
)

__all__ = [
    "ComputeBackend",
    "active_backend",
    "active_backend_name",
    "available_backends",
    "get_backend",
    "reset_backend",
    "set_backend",
    "use_backend",
    "bit_reverse_permutation",
    "fft",
    "ifft",
    "fft_stage_count",
    "fft_complex_multiplies",
    "fft_real_multiplies",
    "negacyclic_fft",
    "transform_length",
]
