"""Morphling core: transform-domain reuse, the 2D-systolic VPE array, and
the accelerator performance model (XPU/VPU/buffers/NoC/HBM/ISA/scheduler).
"""

from .accelerator import MORPHLING_DEFAULT, MorphlingConfig
from .area_power import AreaPowerModel, ComponentCost, TABLE_IV_PAPER
from .buffers import (
    A1_STREAM_OVERHEAD,
    BufferBudget,
    DoublePointerRotator,
    acc_stream_capacity,
    buffer_budget,
    shifter_stall_cycles,
)
from .compiler import CompilationReport, compile_and_run, compile_program
from .dataflow import Dataflow, DataflowCost, dataflow_cost, rank_dataflows
from .hbm import HbmModel, TrafficBreakdown
from .isa_encoding import (
    decode_instruction,
    decode_stream,
    encode_instruction,
    encode_stream,
    stream_size_bytes,
)
from .machine import MorphlingMachine
from .isa import DmaOp, Engine, Instruction, InstructionStream, VpuOp, XpuOp
from .noc import NocLink, NocModel
from .reuse import (
    ReuseType,
    TransformCounts,
    acc_input_reuse_factor,
    acc_output_reuse_factor,
    bsk_reuse_factor,
    reduction_vs_no_reuse,
    transforms_per_bootstrap,
    transforms_per_external_product,
)
from .scheduler import (
    HwScheduler,
    LayerDemand,
    ScheduleResult,
    SwScheduler,
    render_schedule,
    run_workload,
)
from .simulator import MorphlingSimulator, SimulationReport, simulate_bootstrap
from .trace import PipelineTrace, StageSpan, render_timeline, trace_blind_rotation
from .vpe_array import ArrayMapping, VpeArray, map_external_product
from .vpu import VpuModel, VpuStageCycles
from .xpu import IterationBreakdown, XpuModel

__all__ = [
    "MorphlingConfig",
    "MORPHLING_DEFAULT",
    "AreaPowerModel",
    "ComponentCost",
    "TABLE_IV_PAPER",
    "A1_STREAM_OVERHEAD",
    "BufferBudget",
    "DoublePointerRotator",
    "acc_stream_capacity",
    "buffer_budget",
    "shifter_stall_cycles",
    "HbmModel",
    "Dataflow",
    "CompilationReport",
    "compile_program",
    "compile_and_run",
    "DataflowCost",
    "dataflow_cost",
    "rank_dataflows",
    "MorphlingMachine",
    "encode_instruction",
    "decode_instruction",
    "encode_stream",
    "decode_stream",
    "stream_size_bytes",
    "PipelineTrace",
    "StageSpan",
    "trace_blind_rotation",
    "render_timeline",
    "TrafficBreakdown",
    "Engine",
    "Instruction",
    "InstructionStream",
    "XpuOp",
    "VpuOp",
    "DmaOp",
    "NocLink",
    "NocModel",
    "ReuseType",
    "TransformCounts",
    "transforms_per_external_product",
    "transforms_per_bootstrap",
    "reduction_vs_no_reuse",
    "acc_input_reuse_factor",
    "acc_output_reuse_factor",
    "bsk_reuse_factor",
    "LayerDemand",
    "SwScheduler",
    "HwScheduler",
    "ScheduleResult",
    "run_workload",
    "render_schedule",
    "MorphlingSimulator",
    "SimulationReport",
    "simulate_bootstrap",
    "ArrayMapping",
    "VpeArray",
    "map_external_product",
    "VpuModel",
    "VpuStageCycles",
    "XpuModel",
    "IterationBreakdown",
]
