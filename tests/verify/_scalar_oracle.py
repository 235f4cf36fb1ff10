"""Per-instruction reference implementation of the program verifier.

These are the VER001-VER008 bodies as they were written before the
verifier read the program's columns: one Python object per instruction,
walked one at a time.  They are kept verbatim (as ``tests/tfhe/_oracle.py``
keeps the per-CMux bootstrap) so the columnar passes can be checked
against them diagnostic for diagnostic (``test_scalar_oracle.py``).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.isa import DmaOp, Engine, Instruction, VpuOp, XpuOp
from repro.verify.diagnostics import Diagnostic, Severity
from repro.verify.noisepass import (
    STATIC_NOISE_SCHEMA_VERSION,
    StaticNoiseReport,
    gate_decision_margin,
)
from repro.verify.occupancy import (
    _BUFFERS,
    BufferHighWater,
    OccupancyModel,
    OccupancyProof,
)


def engine_of(op: object) -> Optional[Engine]:
    """Engine an opcode dispatches to, or ``None`` for unknown opcodes."""
    return op.engine if isinstance(op, (XpuOp, VpuOp, DmaOp)) else None


class _Foreign:
    """An instruction-shaped foreign object, normalised to the
    :class:`~repro.core.isa.Instruction` field set."""

    __slots__ = Instruction.__slots__

    def __init__(self, index: int, inst: object) -> None:
        self.inst_id = getattr(inst, "inst_id", index)
        self.op = getattr(inst, "op", None)
        self.group = getattr(inst, "group", 0)
        self.count = getattr(inst, "count", 0)
        self.data_bytes = getattr(inst, "data_bytes", 0)
        self.macs = getattr(inst, "macs", 0)
        self.depends_on = tuple(getattr(inst, "depends_on", ()))
        self.engine = engine_of(self.op)


_NORMAL = (Instruction, _Foreign)


def normalise(stream) -> List[Any]:
    return [
        inst if type(inst) in _NORMAL else _Foreign(idx, inst)
        for idx, inst in enumerate(stream)
    ]


class VerifyContext:
    def __init__(self, instructions, config=None, params=None) -> None:
        self.instructions = instructions
        self.config = config
        self.params = params
        self.by_id = {inst.inst_id: inst for inst in self.instructions}


def _diag(code: str, idx: int, inst: Any, message: str,
          severity: Severity = Severity.ERROR) -> Diagnostic:
    op = inst.op
    return Diagnostic(
        code=code, severity=severity, message=message,
        instruction_index=idx, op=getattr(op, "value", str(op)),
    )


def _check_def_before_use(ctx: VerifyContext) -> Iterator[Diagnostic]:
    seen: set = set()
    for idx, inst in enumerate(ctx.instructions):
        for dep in inst.depends_on:
            if dep not in seen:
                kind = ("forward reference" if dep in ctx.by_id
                        else "unknown instruction")
                yield _diag(
                    "VER001", idx, inst,
                    f"dependency {dep} is a {kind}: operands must be "
                    f"defined before use",
                )
        seen.add(inst.inst_id)


def _check_identity(ctx: VerifyContext) -> Iterator[Diagnostic]:
    seen_ids: set = set()
    for idx, inst in enumerate(ctx.instructions):
        inst_id = inst.inst_id
        if inst_id in seen_ids:
            yield _diag("VER002", idx, inst,
                        f"duplicate instruction id {inst_id}")
        seen_ids.add(inst_id)
        deps = inst.depends_on
        if inst_id in deps:
            yield _diag("VER002", idx, inst,
                        f"instruction {inst_id} depends on itself")
        if len(deps) > 1 and len(deps) != len(set(deps)):
            yield _diag("VER002", idx, inst,
                        f"instruction {inst_id} lists a dependency twice",
                        Severity.WARNING)


def _check_opcode_engine(ctx: VerifyContext) -> Iterator[Diagnostic]:
    for idx, inst in enumerate(ctx.instructions):
        op = inst.op
        engine = inst.engine
        if engine is None:
            yield _diag("VER003", idx, inst,
                        f"unknown opcode {op!r}: no engine dispatches it")
            continue
        if engine is Engine.DMA:
            if inst.macs:
                yield _diag("VER003", idx, inst,
                            "DMA instructions carry data_bytes, not MACs")
        elif op is VpuOp.P_ALU:
            if not inst.macs:
                yield _diag("VER003", idx, inst,
                            "P_ALU instruction with no MAC work")
            if inst.count:
                yield _diag("VER003", idx, inst,
                            "P_ALU covers MACs, not ciphertexts")
        else:  # XPU blind-rotate or VPU bootstrap stages
            if not inst.count:
                yield _diag("VER003", idx, inst,
                            f"{engine.value.upper()} compute op covers "
                            f"zero ciphertexts")
            if inst.data_bytes:
                yield _diag("VER003", idx, inst,
                            "compute ops do not carry DMA payloads")
            if inst.macs:
                yield _diag("VER003", idx, inst,
                            "bootstrap-stage ops do not carry MAC work")


def _check_capacity(ctx: VerifyContext) -> Iterator[Diagnostic]:
    if ctx.config is None or ctx.params is None:
        return
    from repro.core.buffers import acc_stream_capacity

    streams = max(1, acc_stream_capacity(ctx.config, ctx.params))
    capacity = streams * ctx.config.bootstrap_cores
    batched = (XpuOp.BLIND_ROTATE, VpuOp.MODULUS_SWITCH,
               VpuOp.SAMPLE_EXTRACT, VpuOp.KEY_SWITCH,
               DmaOp.LOAD_LWE, DmaOp.STORE_LWE)
    for idx, inst in enumerate(ctx.instructions):
        count = inst.count
        if count > capacity and inst.op in batched:
            yield _diag(
                "VER004", idx, inst,
                f"batch of {count} ciphertexts exceeds the scheduler "
                f"group capacity of {capacity} ({streams} resident "
                f"stream(s) x {ctx.config.bootstrap_cores} bootstrap "
                f"cores): Private-A1/Shared residency would overflow",
            )


_CHAIN = (
    VpuOp.MODULUS_SWITCH,
    XpuOp.BLIND_ROTATE,
    VpuOp.SAMPLE_EXTRACT,
    VpuOp.KEY_SWITCH,
    DmaOp.STORE_LWE,
)


def _check_stage_order(ctx: VerifyContext) -> Iterator[Diagnostic]:
    last_stage: Dict[int, int] = {}
    by_id = ctx.by_id
    for idx, inst in enumerate(ctx.instructions):
        op = inst.op
        if op not in _CHAIN:
            continue
        stage = _CHAIN.index(op)
        group = inst.group
        prev = last_stage.get(group)
        if prev is not None and stage < prev:
            yield _diag(
                "VER005", idx, inst,
                f"group {group} emits stage {op.value!r} after a later "
                f"stage: the in-order engine queues would deadlock or "
                f"reorder writes (WAR hazard)",
            )
        last_stage[group] = stage
        if stage == 0:
            continue
        producer = _CHAIN[stage - 1]
        for dep in inst.depends_on:
            dep_inst = by_id.get(dep)
            if (dep_inst is not None and dep_inst.op is producer
                    and dep_inst.group == group):
                break
        else:
            yield _diag(
                "VER005", idx, inst,
                f"{op.value!r} in group {group} does not depend on the "
                f"group's {producer.value!r} result (RAW hazard: it "
                f"would read stale buffer contents)",
            )


def _check_transfers(ctx: VerifyContext) -> Iterator[Diagnostic]:
    params: Any = ctx.params
    word = 4  # torus coefficients are 32-bit words on every channel
    if params is not None:
        word = params.coeff_bytes
        lwe_bytes = params.lwe_bytes
        bsk_sizes = (params.bsk_transform_bytes, params.bsk_bytes)
        ksk_bytes = params.ksk_bytes
    for idx, inst in enumerate(ctx.instructions):
        if inst.engine is not Engine.DMA:
            continue
        op = inst.op
        data_bytes = inst.data_bytes
        if data_bytes <= 0:
            yield _diag("VER006", idx, inst,
                        "DMA transfer moves zero bytes")
            continue
        if data_bytes % word:
            yield _diag(
                "VER006", idx, inst,
                f"transfer of {data_bytes} B is not a multiple of the "
                f"{word} B coefficient word",
            )
        if params is None:
            continue
        if op is DmaOp.LOAD_LWE or op is DmaOp.STORE_LWE:
            count = inst.count
            if count and data_bytes != count * lwe_bytes:
                yield _diag(
                    "VER006", idx, inst,
                    f"LWE transfer of {data_bytes} B does not match "
                    f"{count} ciphertexts x {lwe_bytes} B "
                    f"= {count * lwe_bytes} B",
                )
        elif op is DmaOp.LOAD_BSK:
            if data_bytes not in bsk_sizes:
                yield _diag(
                    "VER006", idx, inst,
                    f"BSK transfer of {data_bytes} B matches neither the "
                    f"transform-domain ({bsk_sizes[0]} B) "
                    f"nor the coefficient-domain ({bsk_sizes[1]} B) "
                    f"key footprint",
                    Severity.WARNING,
                )
        elif op is DmaOp.LOAD_KSK:
            if data_bytes != ksk_bytes:
                yield _diag(
                    "VER006", idx, inst,
                    f"KSK transfer of {data_bytes} B does not match the "
                    f"key footprint of {ksk_bytes} B",
                    Severity.WARNING,
                )


# -- VER007: the occupancy proof over the per-instruction timeline ------
def engine_queue(inst: Any, lane_groups: int) -> str:
    engine = inst.engine
    if engine is Engine.DMA:
        return "dma_xpu" if inst.op is DmaOp.LOAD_BSK else "dma_vpu"
    if engine is Engine.VPU:
        return f"vpu{inst.group % lane_groups}"
    return "xpu"


def list_schedule(instructions, durations, lane_groups, origin):
    ready: dict = {}
    finish: dict = {}
    for inst, duration in zip(instructions, durations):
        queue = engine_queue(inst, lane_groups)
        start = ready.get(queue, origin)
        for dep in inst.depends_on:
            retired = finish.get(dep, origin)
            if retired > start:
                start = retired
        end = start + duration
        ready[queue] = finish[inst.inst_id] = end
        yield queue, start, end, duration


def _intervals(model: OccupancyModel, instructions: Sequence[Any],
               end: List[int]) -> Dict[str, List[Tuple[int, int, int, int]]]:
    rotations = [
        idx for idx, inst in enumerate(instructions)
        if inst.op is XpuOp.BLIND_ROTATE
    ]
    results = {instructions[idx].inst_id for idx in rotations}
    drained: Dict[object, int] = {}
    for idx, inst in enumerate(instructions):
        for dep in inst.depends_on:
            if dep in results and end[idx] > drained.get(dep, 0):
                drained[dep] = end[idx]
    horizon = (max(end) if end else 0) + 1
    intervals: Dict[str, List[Tuple[int, int, int, int]]] = {
        b: [] for b in _BUFFERS
    }
    for idx in rotations:
        inst = instructions[idx]
        count = inst.count
        retired = end[idx]
        intervals["private_a1"].append(
            (retired - 1, retired, count * model.a1_per_ct, idx)
        )
        intervals["private_a2"].append(
            (retired - 1, retired, model.a2_resident, idx)
        )
        intervals["shared"].append((
            retired, max(drained.get(inst.inst_id, horizon), retired + 1),
            count * model.shared_per_ct, idx,
        ))
    return intervals


def analyze(model: OccupancyModel, instructions: Sequence[object],
            subject: str = "<stream>") -> OccupancyProof:
    insts = normalise(instructions)
    timeline = list_schedule(insts, [1] * len(insts), model.lane_groups, 0)
    end = [end for _queue, _start, end, _duration in timeline]
    intervals = _intervals(model, insts, end)
    marks: List[BufferHighWater] = []
    for buffer in _BUFFERS:
        events: List[Tuple[int, int, int]] = []
        for t_from, t_to, nbytes, idx in intervals[buffer]:
            if nbytes <= 0:
                continue
            events.append((t_from, nbytes, idx))
            events.append((t_to, -nbytes, idx))
        level = 0
        peak = 0
        peak_step = 0
        peak_idx: Optional[int] = None
        for t, delta, idx in sorted(events, key=lambda e: (e[0], e[1])):
            level += delta
            if level > peak:
                peak = level
                peak_step = t
                peak_idx = idx
        marks.append(BufferHighWater(
            buffer=buffer,
            capacity_bytes=model.capacities[buffer],
            high_water_bytes=peak,
            at_step=peak_step,
            at_instruction=peak_idx,
        ))
    steps = max(end) if end else 0
    return OccupancyProof(subject=subject, steps=steps, buffers=tuple(marks))


def _check_occupancy(ctx: VerifyContext) -> Iterator[Diagnostic]:
    if ctx.config is None or ctx.params is None:
        return
    proof = analyze(OccupancyModel(ctx.config, ctx.params), ctx.instructions)
    for hw in proof.buffers:
        if hw.ok:
            continue
        op = (ctx.instructions[hw.at_instruction].op
              if hw.at_instruction is not None else None)
        yield Diagnostic(
            code="VER007", severity=Severity.ERROR,
            message=(
                f"{hw.buffer} high-water mark of {hw.high_water_bytes:,} B "
                f"exceeds the {hw.capacity_bytes:,} B capacity at abstract "
                f"step {hw.at_step}: too many live results between "
                f"producers and their consumers (per-instruction batches "
                f"fit, the aggregate does not)"
            ),
            instruction_index=hw.at_instruction,
            op=getattr(op, "value", str(op)) if op is not None else None,
        )


# -- VER008: variance propagated instruction by instruction -------------
_PROPAGATING = (VpuOp.KEY_SWITCH, VpuOp.SAMPLE_EXTRACT, DmaOp.STORE_LWE)


def static_noise_report(
    instructions: Sequence[object],
    params: object,
    margin: Optional[float] = None,
    log2_budget: Optional[float] = None,
) -> StaticNoiseReport:
    from repro.analysis.failprob import (
        DEFAULT_LOG2_BUDGET,
        LOG2_PROB_FLOOR,
        gaussian_tail_log2,
    )
    from repro.tfhe.noise import (
        blind_rotation_noise_variance,
        key_switch_noise_variance,
        modulus_switch_noise_variance,
    )

    if margin is None:
        margin = gate_decision_margin(params)
    if log2_budget is None:
        log2_budget = DEFAULT_LOG2_BUDGET
    br_variance = blind_rotation_noise_variance(params)
    ms_variance = modulus_switch_noise_variance(params)

    variance: Dict[object, float] = {}
    key_switched: Dict[float, float] = {}  # operand variance -> KS output
    bootstraps = 0
    terminal = 0.0  # worst fully key-switched output variance observed
    for inst in normalise(instructions):
        op = inst.op
        if op is XpuOp.BLIND_ROTATE:
            variance[inst.inst_id] = br_variance
            bootstraps += max(inst.count, 0)
        elif op in _PROPAGATING:
            out = 0.0
            for dep in inst.depends_on:
                out = max(out, variance.get(dep, 0.0))
            if op is VpuOp.KEY_SWITCH:
                operand = out
                out = key_switched.get(operand)
                if out is None:
                    out = key_switched[operand] = key_switch_noise_variance(
                        params, operand
                    )
                terminal = max(terminal, out)
            variance[inst.inst_id] = out
    if terminal <= 0.0:
        # No key-switch in the stream (a bare rotation program): fall
        # back to the closed-form bootstrap output variance.
        terminal = key_switch_noise_variance(params, br_variance)

    decision_variance = 2.0 * terminal + ms_variance
    std = math.sqrt(decision_variance) if decision_variance > 0.0 else 0.0
    per_point = gaussian_tail_log2(margin, decision_variance)
    count = max(bootstraps, 1)
    total = min(per_point + math.log2(count), 0.0)
    total = max(total, LOG2_PROB_FLOOR)
    return StaticNoiseReport(
        schema_version=STATIC_NOISE_SCHEMA_VERSION,
        params_name=str(getattr(params, "name", "<params>")),
        bootstraps=bootstraps,
        margin=margin,
        ms_variance=ms_variance,
        bootstrap_output_variance=terminal,
        decision_variance=decision_variance,
        decision_std_log2=(math.log2(std) if std > 0.0 else LOG2_PROB_FLOOR),
        sigmas=(margin / std if std > 0.0 else math.inf),
        per_bootstrap_log2_prob=per_point,
        total_log2_prob=total,
        log2_budget=log2_budget,
    )


def _check_noise_budget(ctx: VerifyContext) -> Iterator[Diagnostic]:
    if ctx.params is None:
        return
    report = static_noise_report(ctx.instructions, ctx.params)
    if report.bootstraps == 0 or report.within_budget:
        return
    first_br: Optional[int] = None
    for idx, inst in enumerate(ctx.instructions):
        if inst.op is XpuOp.BLIND_ROTATE:
            first_br = idx
            break
    yield Diagnostic(
        code="VER008", severity=Severity.WARNING,
        message=(
            f"static failure bound log2(p) <= {report.total_log2_prob:.1f} "
            f"breaches the 2^{report.log2_budget:.0f} budget over "
            f"{report.bootstraps:,} bootstraps under {report.params_name} "
            f"({report.sigmas:.1f} sigma decision margin): the parameter "
            f"regime, not the program, is the risk"
        ),
        instruction_index=first_br,
        op=XpuOp.BLIND_ROTATE.value if first_br is not None else None,
    )


PASSES = (
    ("VER001", _check_def_before_use),
    ("VER002", _check_identity),
    ("VER003", _check_opcode_engine),
    ("VER004", _check_capacity),
    ("VER005", _check_stage_order),
    ("VER006", _check_transfers),
    ("VER007", _check_occupancy),
    ("VER008", _check_noise_budget),
)


def verify(stream, config=None, params=None) -> List[Diagnostic]:
    """Every diagnostic of ``stream``, in pipeline order."""
    ctx = VerifyContext(normalise(stream), config=config, params=params)
    return [d for _code, run in PASSES for d in run(ctx)]
