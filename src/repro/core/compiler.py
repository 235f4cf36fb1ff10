"""Compilation: program -> verified instruction stream -> binary.

The front end that makes the pieces compose the way a user of the
paper's system would drive it:

1. take a program (a :class:`~repro.apps.workload.Workload`, a
   :class:`~repro.tfhe.boolean.Circuit`, or raw layers);
2. lower it with the SW-scheduler;
3. statically verify the stream with the :mod:`repro.verify` pass
   pipeline (def-before-use, buffer capacity, engine compatibility,
   hazard ordering, HBM transfer sanity) - on by default, disable with
   ``verify=False``;
4. serialize the instruction stream to the binary wire format (what the
   host would ship to the accelerator).

Executing a workload on the HW-scheduler timing model is
:func:`repro.core.scheduler.run_workload`.
"""

from __future__ import annotations

from typing import List, Tuple

from ..params import TFHEParams
from .accelerator import MorphlingConfig
from .isa_encoding import encode_stream
from .scheduler import SwScheduler

__all__ = ["compile_program"]


def _to_layers(program: object) -> Tuple[str, List[object]]:
    """Accept a Workload, a Circuit, or a plain layer list."""
    from ..apps.workload import Workload
    from ..tfhe.boolean import Circuit

    if isinstance(program, Circuit):
        workload = program.to_workload("circuit")
        return workload.name, list(workload.layers)
    if isinstance(program, Workload):
        return program.name, list(program.layers)
    if isinstance(program, (list, tuple)) and program:
        return "layers", list(program)
    raise TypeError(
        "program must be a Workload, a Circuit, or a non-empty layer list"
    )


def compile_program(
    program: object, config: MorphlingConfig, params: TFHEParams,
    verify: bool = True,
) -> tuple:
    """Lower a program; returns ``(name, stream, binary)``.

    With ``verify`` (the default) the compiled stream must pass the
    static program verifier; an ill-formed program raises
    :class:`repro.verify.VerificationError` instead of reaching the
    timing model with silently-wrong results.
    """
    name, layers = _to_layers(program)
    stream = SwScheduler(config, params).schedule(layers)
    if verify:
        from ..verify import verify_or_raise

        verify_or_raise(stream, config=config, params=params, subject=name)
    return name, stream, encode_stream(stream)
