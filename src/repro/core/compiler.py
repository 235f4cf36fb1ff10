"""End-to-end compilation: program -> schedule -> binary -> execution report.

The facade that makes the pieces compose the way a user of the paper's
system would drive it:

1. take a program (a :class:`~repro.apps.workload.Workload`, a
   :class:`~repro.tfhe.boolean.Circuit`, or raw layers);
2. lower it with the SW-scheduler (optionally per client);
3. statically verify the stream with the :mod:`repro.verify` pass
   pipeline (def-before-use, buffer capacity, engine compatibility,
   hazard ordering, HBM transfer sanity) - on by default, disable with
   ``verify=False``;
4. serialize the instruction stream to the binary wire format (what the
   host would ship to the accelerator);
5. execute on the HW-scheduler timing model;
6. return a :class:`CompilationReport` with the program, the binary
   size, the makespan, utilizations, and the achieved bootstrap rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..params import TFHEParams
from .accelerator import MorphlingConfig
from .isa import XpuOp
from .isa_encoding import encode_stream
from .scheduler import HwScheduler, ScheduleResult, SwScheduler

__all__ = ["CompilationReport", "compile_program", "compile_and_run"]


@dataclass(frozen=True)
class CompilationReport:
    """Everything one compile-and-run produces."""

    program_name: str
    instructions: int
    binary_bytes: int
    total_bootstraps: int
    total_seconds: float
    bootstraps_per_second: float
    xpu_utilization: float
    padding_waste: float

    def summary(self) -> str:
        return (
            f"{self.program_name}: {self.instructions} instructions "
            f"({self.binary_bytes:,} B), {self.total_bootstraps:,} bootstraps "
            f"in {self.total_seconds * 1e3:.2f} ms "
            f"({self.bootstraps_per_second:,.0f} BS/s, "
            f"XPU {self.xpu_utilization:.0%} busy)"
        )


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


def compile_and_run(
    program: object, config: Optional[MorphlingConfig] = None,
    params: Optional[TFHEParams] = None, verify: bool = True,
) -> CompilationReport:
    """Full pipeline: lower, verify, serialize, execute, report."""
    from ..params import get_params

    config = config or MorphlingConfig()
    params = params or get_params("III")
    name, stream, binary = compile_program(program, config, params, verify=verify)
    result: ScheduleResult = HwScheduler(config, params).execute(stream)
    cols = stream.columns()
    bootstraps = int(cols.count[cols.code == XpuOp.BLIND_ROTATE.code].sum())
    rate = bootstraps / result.total_seconds if result.total_seconds else 0.0
    return CompilationReport(
        program_name=name,
        instructions=len(stream),
        binary_bytes=len(binary),
        total_bootstraps=bootstraps,
        total_seconds=result.total_seconds,
        bootstraps_per_second=rate,
        xpu_utilization=result.utilization["xpu"],
        padding_waste=result.padding_waste,
    )
