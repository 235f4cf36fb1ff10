"""Head 1: static verifier for compiled ISA instruction streams.

A pass pipeline over :class:`repro.core.isa.InstructionStream` (or any
iterable of instruction-shaped objects, e.g. a decoded binary program)
that runs before the HW-scheduler executes the stream.  Each pass owns a
stable ``VERxxx`` code; a violation is reported with the instruction
index, the source op, and a severity.  The pipeline is pure analysis -
it never mutates the stream - so it is safe to run on every compile
(:func:`repro.core.compiler.compile_program` does, unless told not to).

Pass catalog
------------
``VER001``  operand def-before-use: every dependency id must name an
            instruction already emitted (the in-order DMA/engine queues
            cannot satisfy forward references)
``VER002``  identity sanity: duplicate instruction ids, self- or
            duplicate dependencies
``VER003``  opcode/engine compatibility: unknown opcodes and payload
            fields that do not belong on the op's engine
``VER004``  buffer capacity: batch sizes that overflow the Private-A1
            residency / Shared buffer implied by the configuration
``VER005``  stage-order hazards: the per-group bootstrap chain must
            respect MS -> BR -> SE -> KS -> STORE (RAW) and be emitted
            in that order (the scheduler's in-order queue assumption)
``VER006``  HBM transfer sanity: empty or word-misaligned DMA payloads,
            LWE transfers inconsistent with their ciphertext count
``VER007``  occupancy-over-time: aggregate Shared/Private buffer
            occupancy across the abstract timeline must fit capacity
            (:mod:`repro.verify.occupancy`)
``VER008``  static noise budget: predicted CGGI failure probability
            within the 2^-20 budget (:mod:`repro.verify.noisepass`,
            warning severity)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

from ..core.isa import DmaOp, Engine, Instruction, VpuOp, XpuOp, engine_of
from .diagnostics import Diagnostic, RuleInfo, Severity, VerificationError, VerifyReport

__all__ = [
    "VerifyContext",
    "normalise",
    "ProgramPass",
    "PROGRAM_PASSES",
    "register_program_pass",
    "program_rule_catalog",
    "verify_stream",
    "verify_or_raise",
]


class _Foreign:
    """An instruction-shaped foreign object, normalised to the
    :class:`~repro.core.isa.Instruction` field set.

    Hand-built or third-party records may lack fields or carry an opcode
    the ISA constructor would refuse; the passes must still report on
    them.  Missing fields take the neutral defaults here, once, so every
    pass reads plain attributes.
    """

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


def normalise(stream: Iterable[object]) -> List[Any]:
    """``stream`` as a list whose items all expose the instruction fields.

    The stream's own :class:`~repro.core.isa.Instruction` objects are
    kept (never copied); anything else is wrapped in a :class:`_Foreign`,
    so passes read ``inst.op`` / ``inst.engine`` / ``inst.depends_on``
    directly.
    """
    return [
        inst if type(inst) in _NORMAL else _Foreign(idx, inst)
        for idx, inst in enumerate(stream)
    ]


@dataclass
class VerifyContext:
    """Everything a pass may inspect.

    ``instructions`` is a :func:`normalise`-d list.  ``config``/``params``
    are optional: capacity and transfer-size checks degrade gracefully
    (skip) when the architectural context is unknown, so the verifier
    still works on bare decoded binaries.
    """

    instructions: List[Any]
    config: Optional[object] = None
    params: Optional[object] = None
    by_id: Dict[int, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.by_id:
            self.by_id = {inst.inst_id: inst for inst in self.instructions}


PassFn = Callable[[VerifyContext], Iterator[Diagnostic]]


@dataclass(frozen=True)
class ProgramPass:
    """One verifier pass: metadata plus the check function."""

    info: RuleInfo
    run: PassFn

    @property
    def code(self) -> str:
        return self.info.code


PROGRAM_PASSES: List[ProgramPass] = []


def register_program_pass(code: str, name: str, summary: str,
                          severity: Severity = Severity.ERROR) -> Callable[[PassFn], PassFn]:
    """Register a verifier pass under a stable ``VERxxx`` code (decorator).

    Public so analyses can live in their own modules (the occupancy and
    noise-budget passes do); registration order is catalog order.
    """
    def deco(fn: PassFn) -> PassFn:
        PROGRAM_PASSES.append(
            ProgramPass(RuleInfo(code, name, summary, severity), fn)
        )
        return fn
    return deco


#: Backwards-compatible internal alias (the VER001-VER006 passes below).
_register = register_program_pass


def program_rule_catalog() -> List[RuleInfo]:
    """Catalog of all registered verifier passes."""
    return [p.info for p in PROGRAM_PASSES]


def _diag(code: str, idx: int, inst: Any, message: str,
          severity: Severity = Severity.ERROR) -> Diagnostic:
    op = inst.op
    return Diagnostic(
        code=code, severity=severity, message=message,
        instruction_index=idx, op=getattr(op, "value", str(op)),
    )


# ----------------------------------------------------------------------
# VER001 - def-before-use
# ----------------------------------------------------------------------
@_register("VER001", "def-before-use",
           "dependencies must reference already-emitted instructions")
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


# ----------------------------------------------------------------------
# VER002 - identity sanity
# ----------------------------------------------------------------------
@_register("VER002", "identity-sanity",
           "instruction ids must be unique; no self/duplicate dependencies")
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


# ----------------------------------------------------------------------
# VER003 - opcode/engine compatibility
# ----------------------------------------------------------------------
@_register("VER003", "opcode-engine-compatibility",
           "payload fields must match the opcode's engine")
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


# ----------------------------------------------------------------------
# VER004 - buffer capacity
# ----------------------------------------------------------------------
@_register("VER004", "buffer-capacity",
           "batch sizes must fit the resident-stream capacity")
def _check_capacity(ctx: VerifyContext) -> Iterator[Diagnostic]:
    if ctx.config is None or ctx.params is None:
        return
    from ..core.buffers import acc_stream_capacity

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


# ----------------------------------------------------------------------
# VER005 - stage-order hazards
# ----------------------------------------------------------------------
#: The per-group bootstrap chain in stage order.  A stage's position is
#: its order, and its predecessor is the upstream stage it must consume
#: (the RAW edge); MODULUS_SWITCH heads the chain and has none.
_CHAIN = (
    VpuOp.MODULUS_SWITCH,
    XpuOp.BLIND_ROTATE,
    VpuOp.SAMPLE_EXTRACT,
    VpuOp.KEY_SWITCH,
    DmaOp.STORE_LWE,
)


@_register("VER005", "stage-order-hazard",
           "per-group bootstrap chains must order MS -> BR -> SE -> KS -> STORE")
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


# ----------------------------------------------------------------------
# VER006 - HBM transfer sanity
# ----------------------------------------------------------------------
@_register("VER006", "hbm-transfer-sanity",
           "DMA payloads must be non-empty, word-aligned and count-consistent")
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


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def verify_stream(
    stream: Iterable[object],
    config: Optional[object] = None,
    params: Optional[object] = None,
    passes: Optional[Iterable[str]] = None,
    subject: str = "<stream>",
) -> VerifyReport:
    """Run the pass pipeline over ``stream`` and collect diagnostics.

    ``passes`` optionally restricts the run to a subset of ``VERxxx``
    codes.  The stream may be an :class:`InstructionStream`, a decoded
    binary program, or any list of instruction-shaped objects.
    """
    ctx = VerifyContext(normalise(stream), config=config, params=params)
    report = VerifyReport(subject=subject)
    wanted = set(passes) if passes is not None else None
    for p in PROGRAM_PASSES:
        if wanted is not None and p.code not in wanted:
            continue
        report.extend(p.run(ctx))
    return report


def verify_or_raise(
    stream: Iterable[object],
    config: Optional[object] = None,
    params: Optional[object] = None,
    subject: str = "<stream>",
) -> VerifyReport:
    """Verify and raise :class:`VerificationError` on any error finding."""
    report = verify_stream(stream, config=config, params=params, subject=subject)
    if not report.ok:
        raise VerificationError(report)
    return report
