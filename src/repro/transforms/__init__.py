"""Transform substrate: the negacyclic FFT.

:mod:`~repro.transforms.negacyclic` runs every transform of the TFHE
scheme substrate; the pipelined hardware model
(:mod:`~repro.transforms.pipeline_model`) backs the cycle simulator and
is imported from its module, so the substrate does not load it.
"""

from .negacyclic import negacyclic_fft, transform_length

__all__ = ["negacyclic_fft", "transform_length"]
