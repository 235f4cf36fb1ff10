"""Head 1: static verifier for compiled ISA instruction streams.

A pass pipeline over a program's columns - an
:class:`repro.core.isa.InstructionStream`, or a
:class:`repro.core.isa.StreamColumns` such as a decoded binary - that
runs before the HW-scheduler executes the stream.  Each pass owns a
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

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, List, Optional

import numpy as np

from ..core.isa import (
    OPCODES, DmaOp, Program, StreamColumns, VpuOp, XpuOp, as_columns, opcode_mask,
)
from .diagnostics import Diagnostic, RuleInfo, Severity, VerificationError, VerifyReport

__all__ = [
    "VerifyContext",
    "ProgramPass",
    "PROGRAM_PASSES",
    "register_program_pass",
    "program_rule_catalog",
    "verify_stream",
    "verify_or_raise",
]


@dataclass
class VerifyContext:
    """Everything a pass may inspect.

    ``columns`` is the program as columns.  ``config``/``params``
    are optional: capacity and transfer-size checks degrade gracefully
    (skip) when the architectural context is unknown, so the verifier
    still works on bare decoded binaries.
    """

    columns: StreamColumns
    config: Optional[object] = None
    params: Optional[object] = None

    def is_op(self, *ops: Any) -> np.ndarray:
        """Mask of the rows whose opcode is one of ``ops``."""
        return opcode_mask(ops)[self.columns.slot]


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


def program_rule_catalog() -> List[RuleInfo]:
    """Catalog of all registered verifier passes."""
    return [p.info for p in PROGRAM_PASSES]


def _diag(code: str, cols: StreamColumns, row: int, message: str,
          severity: Severity = Severity.ERROR) -> Diagnostic:
    return Diagnostic(
        code=code, severity=severity, message=message,
        instruction_index=row, op=cols.op_name(row),
    )


def _flag(code: str, cols: StreamColumns, *checks: tuple) -> Iterator[Diagnostic]:
    """Diagnostics of per-row checks ``(mask, message(row)[, severity])``:
    one per flagged row and check, in row order, then check order."""
    if not any(check[0].any() for check in checks):
        return
    hits = [np.flatnonzero(check[0]) for check in checks]
    rows = np.concatenate(hits)
    which = np.repeat(np.arange(len(checks)), [len(h) for h in hits])
    for k in np.lexsort((which, rows)).tolist():
        row = int(rows[k])
        _, message, *severity = checks[which[k]]
        yield _diag(code, cols, row, message(row), *severity)


# ----------------------------------------------------------------------
# VER001 - def-before-use
# ----------------------------------------------------------------------
@register_program_pass("VER001", "def-before-use",
           "dependencies must reference already-emitted instructions")
def _check_def_before_use(ctx: VerifyContext) -> Iterator[Diagnostic]:
    cols = ctx.columns
    undefined = cols.resolve(cols.deps, cols.owner) < 0
    for entry in np.flatnonzero(undefined).tolist():
        dep = int(cols.deps[entry])
        kind = ("forward reference" if cols.resolve(dep, len(cols)) >= 0
                else "unknown instruction")
        yield _diag(
            "VER001", cols, int(cols.owner[entry]),
            f"dependency {dep} is a {kind}: operands must be "
            f"defined before use",
        )


# ----------------------------------------------------------------------
# VER002 - identity sanity
# ----------------------------------------------------------------------
@register_program_pass("VER002", "identity-sanity",
           "instruction ids must be unique; no self/duplicate dependencies")
def _check_identity(ctx: VerifyContext) -> Iterator[Diagnostic]:
    cols = ctx.columns
    ids, deps, owner = cols.ids, cols.deps, cols.owner
    rows = np.arange(len(cols))
    itself = np.zeros(len(cols), dtype=bool)
    itself[owner[deps == ids[owner]]] = True
    # A repeated dependency is adjacent once a row's dependencies are
    # sorted.  Pairs need no sort, so only out-of-order rows of three or
    # more do (by row, then id: the row order, and `same`, stay valid).
    same = owner[1:] == owner[:-1]
    if (same & (deps[1:] < deps[:-1]) & (np.diff(cols.dep_ptr)[owner[1:]] > 2)).any():
        deps = deps[np.lexsort((deps, owner))]
    twice = np.zeros(len(cols), dtype=bool)
    twice[owner[1:][same & (deps[1:] == deps[:-1])]] = True
    yield from _flag(
        "VER002", cols,
        (cols.resolve(ids, rows) >= 0,
         lambda i: f"duplicate instruction id {ids[i]}"),
        (itself, lambda i: f"instruction {ids[i]} depends on itself"),
        (twice, lambda i: f"instruction {ids[i]} lists a dependency twice",
         Severity.WARNING),
    )


# ----------------------------------------------------------------------
# VER003 - opcode/engine compatibility
# ----------------------------------------------------------------------
@register_program_pass("VER003", "opcode-engine-compatibility",
           "payload fields must match the opcode's engine")
def _check_opcode_engine(ctx: VerifyContext) -> Iterator[Diagnostic]:
    cols = ctx.columns
    known = cols.slot >= 0
    dma = ctx.is_op(*DmaOp)
    palu = ctx.is_op(VpuOp.P_ALU)
    compute = known & ~dma & ~palu  # XPU blind-rotate or VPU bootstrap stages
    macs, count = cols.macs != 0, cols.count != 0
    yield from _flag(
        "VER003", cols,
        (~known, lambda i: f"unknown opcode {cols.code[i]}: no engine "
                           f"dispatches it"),
        (dma & macs, lambda i: "DMA instructions carry data_bytes, not MACs"),
        (palu & ~macs, lambda i: "P_ALU instruction with no MAC work"),
        (palu & count, lambda i: "P_ALU covers MACs, not ciphertexts"),
        (compute & ~count,
         lambda i: f"{OPCODES[cols.code[i]].engine.value.upper()} compute op covers "
                   f"zero ciphertexts"),
        (compute & (cols.data_bytes != 0),
         lambda i: "compute ops do not carry DMA payloads"),
        (compute & macs, lambda i: "bootstrap-stage ops do not carry MAC work"),
    )


# ----------------------------------------------------------------------
# VER004 - buffer capacity
# ----------------------------------------------------------------------
@register_program_pass("VER004", "buffer-capacity",
           "batch sizes must fit the resident-stream capacity")
def _check_capacity(ctx: VerifyContext) -> Iterator[Diagnostic]:
    if ctx.config is None or ctx.params is None:
        return
    from ..core.buffers import acc_stream_capacity

    streams = max(1, acc_stream_capacity(ctx.config, ctx.params))
    capacity = streams * ctx.config.bootstrap_cores
    count = ctx.columns.count
    batched = ctx.is_op(XpuOp.BLIND_ROTATE, VpuOp.MODULUS_SWITCH,
                        VpuOp.SAMPLE_EXTRACT, VpuOp.KEY_SWITCH,
                        DmaOp.LOAD_LWE, DmaOp.STORE_LWE)
    yield from _flag(
        "VER004", ctx.columns,
        (batched & (count > capacity),
         lambda i: f"batch of {count[i]} ciphertexts exceeds the scheduler "
                   f"group capacity of {capacity} ({streams} resident "
                   f"stream(s) x {ctx.config.bootstrap_cores} bootstrap "
                   f"cores): Private-A1/Shared residency would overflow"),
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
#: Stage of each opcode slot (-1: not a chain op; the last entry serves
#: unknown codes), and the code each stage consumes.
_STAGE = np.full(len(OPCODES) + 1, -1)
_STAGE[[op.code for op in _CHAIN]] = np.arange(len(_CHAIN))
_PRODUCER = np.array([-1] + [op.code for op in _CHAIN[:-1]])


@register_program_pass("VER005", "stage-order-hazard",
           "per-group bootstrap chains must order MS -> BR -> SE -> KS -> STORE")
def _check_stage_order(ctx: VerifyContext) -> Iterator[Diagnostic]:
    cols = ctx.columns
    group, stage = cols.group, _STAGE[cols.slot]
    # Each chain row against the previous chain row of its group.
    chain = np.flatnonzero(stage >= 0)
    chain_group = group[chain]
    if (chain_group[1:] < chain_group[:-1]).any():  # lowered programs are in group order
        order = np.argsort(chain_group, kind="stable")
        chain, chain_group = chain[order], chain_group[order]
    chain_stage = stage[chain]
    later = np.zeros(len(cols), dtype=bool)
    later[chain[1:][(chain_group[1:] == chain_group[:-1])
                    & (chain_stage[1:] < chain_stage[:-1])]] = True
    # A consumer needs a dependency whose instruction (the last one with
    # that id) is its own group's producer stage.
    consumes = stage[cols.owner] > 0
    owner = cols.owner[consumes]
    src = cols.resolve(cols.deps[consumes], len(cols))
    fed = ((src >= 0) & (cols.code[src] == _PRODUCER[stage[owner]])
           & (group[src] == group[owner]))
    starved = stage > 0
    starved[owner[fed]] = False
    yield from _flag(
        "VER005", cols,
        (later, lambda i: f"group {group[i]} emits stage {cols.op_name(i)!r} "
                          f"after a later stage: the in-order engine queues "
                          f"would deadlock or reorder writes (WAR hazard)"),
        (starved, lambda i: f"{cols.op_name(i)!r} in group {group[i]} does "
                            f"not depend on the group's "
                            f"{_CHAIN[stage[i] - 1].value!r} result (RAW "
                            f"hazard: it would read stale buffer contents)"),
    )


# ----------------------------------------------------------------------
# VER006 - HBM transfer sanity
# ----------------------------------------------------------------------
@register_program_pass("VER006", "hbm-transfer-sanity",
           "DMA payloads must be non-empty, word-aligned and count-consistent")
def _check_transfers(ctx: VerifyContext) -> Iterator[Diagnostic]:
    params: Any = ctx.params
    word = 4  # torus coefficients are 32-bit words on every channel
    if params is not None:
        word = params.coeff_bytes
    data, count = ctx.columns.data_bytes, ctx.columns.count
    dma = ctx.is_op(*DmaOp)
    moves = dma & (data > 0)
    checks = [
        (dma & (data <= 0), lambda i: "DMA transfer moves zero bytes"),
        (moves & (data % word != 0),
         lambda i: f"transfer of {data[i]} B is not a multiple of the "
                   f"{word} B coefficient word"),
    ]
    if params is not None:
        lwe_bytes = params.lwe_bytes
        bsk_sizes = (params.bsk_transform_bytes, params.bsk_bytes)
        ksk_bytes = params.ksk_bytes
        checks += [
            (moves & ctx.is_op(DmaOp.LOAD_LWE, DmaOp.STORE_LWE) & (count != 0)
             & (data != count * lwe_bytes),
             lambda i: f"LWE transfer of {data[i]} B does not match "
                       f"{count[i]} ciphertexts x {lwe_bytes} B "
                       f"= {count[i] * lwe_bytes} B"),
            (moves & ctx.is_op(DmaOp.LOAD_BSK) & (data != bsk_sizes[0])
             & (data != bsk_sizes[1]),
             lambda i: f"BSK transfer of {data[i]} B matches neither the "
                       f"transform-domain ({bsk_sizes[0]} B) "
                       f"nor the coefficient-domain ({bsk_sizes[1]} B) "
                       f"key footprint",
             Severity.WARNING),
            (moves & ctx.is_op(DmaOp.LOAD_KSK) & (data != ksk_bytes),
             lambda i: f"KSK transfer of {data[i]} B does not match the "
                       f"key footprint of {ksk_bytes} B",
             Severity.WARNING),
        ]
    yield from _flag("VER006", ctx.columns, *checks)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def verify_stream(
    stream: Program,
    config: Optional[object] = None,
    params: Optional[object] = None,
    passes: Optional[Iterable[str]] = None,
    subject: str = "<stream>",
) -> VerifyReport:
    """Run the pass pipeline over ``stream`` and collect diagnostics.

    ``passes`` optionally restricts the run to a subset of ``VERxxx``
    codes.  The stream may be an :class:`InstructionStream` or columns
    built elsewhere (a decoded binary program, a hand-built one).
    """
    ctx = VerifyContext(as_columns(stream), config=config, params=params)
    report = VerifyReport(subject=subject)
    wanted = set(passes) if passes is not None else None
    for p in PROGRAM_PASSES:
        if wanted is not None and p.code not in wanted:
            continue
        report.extend(p.run(ctx))
    return report


def verify_or_raise(
    stream: Program,
    config: Optional[object] = None,
    params: Optional[object] = None,
    subject: str = "<stream>",
) -> VerifyReport:
    """Verify and raise :class:`VerificationError` on any error finding."""
    report = verify_stream(stream, config=config, params=params, subject=subject)
    if not report.ok:
        raise VerificationError(report)
    return report
