"""Transform substrate: FFT backends, negacyclic folding, merge-split.

Functional transforms (:mod:`~repro.transforms.fft`,
:mod:`~repro.transforms.negacyclic`, :mod:`~repro.transforms.merge_split`)
back the TFHE scheme substrate; the pipelined hardware model
(:mod:`~repro.transforms.pipeline_model`) backs the cycle simulator.
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
from .merge_split import (
    merge_spectra,
    merged_fft,
    merged_ifft,
    negacyclic_fft_pair,
    negacyclic_ifft_pair,
    split_spectra,
)
from .negacyclic import (
    negacyclic_fft,
    negacyclic_ifft,
    transform_length,
)
from .ntt import (
    GOLDILOCKS_PRIME,
    intt,
    negacyclic_ntt_multiply,
    ntt,
    primitive_root_of_unity,
)
from .pipeline_model import PipelinedFFTModel

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
    "negacyclic_ifft",
    "transform_length",
    "merged_fft",
    "merged_ifft",
    "merge_spectra",
    "split_spectra",
    "negacyclic_fft_pair",
    "negacyclic_ifft_pair",
    "PipelinedFFTModel",
    "GOLDILOCKS_PRIME",
    "ntt",
    "intt",
    "negacyclic_ntt_multiply",
    "primitive_root_of_unity",
]
