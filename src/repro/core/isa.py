"""Custom instruction set for the XPU, VPU and DMA engines (Section V-E).

The SW-scheduler lowers an application into three instruction streams;
the HW-scheduler dispatches them respecting the declared dependencies.
Instructions are deliberately coarse-grained - one XPU instruction is a
whole blind rotation of a resident batch - matching the granularity the
paper schedules at (Fig. 6).
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "Engine",
    "XpuOp",
    "VpuOp",
    "DmaOp",
    "Instruction",
    "InstructionStream",
    "engine_of",
    "engine_queue",
]


class Engine(enum.Enum):
    XPU = "xpu"
    VPU = "vpu"
    DMA = "dma"


class _Opcode(enum.Enum):
    """Base of the per-engine opcode enums.

    Every member carries the engine that dispatches it as a plain
    attribute: the schedulers and the verifier read it per instruction,
    and hashing an enum member into a table (``Enum.__hash__`` runs in
    Python) costs several times an attribute read.
    """

    engine: Engine


class XpuOp(_Opcode):
    BLIND_ROTATE = "blind_rotate"


class VpuOp(_Opcode):
    MODULUS_SWITCH = "modulus_switch"
    SAMPLE_EXTRACT = "sample_extract"
    KEY_SWITCH = "key_switch"
    P_ALU = "p_alu"


class DmaOp(_Opcode):
    LOAD_LWE = "load_lwe"
    LOAD_BSK = "load_bsk"
    LOAD_KSK = "load_ksk"
    LOAD_TEST_POLY = "load_test_poly"
    STORE_LWE = "store_lwe"


for _ops, _engine in ((XpuOp, Engine.XPU), (VpuOp, Engine.VPU), (DmaOp, Engine.DMA)):
    for _op in _ops:
        _op.engine = _engine


def engine_of(op: object) -> Optional[Engine]:
    """Engine an opcode dispatches to, or ``None`` for unknown opcodes."""
    return op.engine if isinstance(op, _Opcode) else None


class Instruction:
    """One scheduled operation.

    ``count`` is the number of ciphertexts the op covers (batch size for
    XPU/VPU ops); ``data_bytes`` the DMA payload; ``macs`` the P-ALU work.
    ``depends_on`` lists instruction ids that must retire first.
    ``engine`` is the opcode's engine, resolved once here.

    Slotted (no per-instance ``__dict__``): a DeepCNN-100 stream is 18 736
    of these.  Instructions are values - compared and hashed by their
    fields - and nothing mutates one after construction.
    """

    __slots__ = ("inst_id", "op", "group", "count", "data_bytes", "macs",
                 "depends_on", "engine")

    def __init__(
        self, inst_id: int, op: object, group: int, count: int = 0,
        data_bytes: int = 0, macs: int = 0, depends_on: Tuple[int, ...] = (),
    ) -> None:
        if not isinstance(op, _Opcode):
            raise ValueError(f"unknown opcode: {op!r}")
        if count < 0 or data_bytes < 0 or macs < 0:
            raise ValueError("instruction sizes must be non-negative")
        self.inst_id = inst_id
        self.op = op
        self.group = group
        self.count = count
        self.data_bytes = data_bytes
        self.macs = macs
        self.depends_on = depends_on
        self.engine = op.engine

    def _fields(self) -> tuple:
        return (self.inst_id, self.op, self.group, self.count,
                self.data_bytes, self.macs, self.depends_on)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instruction):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"Instruction(inst_id={self.inst_id!r}, op={self.op!r}, "
            f"group={self.group!r}, count={self.count!r}, "
            f"data_bytes={self.data_bytes!r}, macs={self.macs!r}, "
            f"depends_on={self.depends_on!r})"
        )


def engine_queue(inst: Instruction, lane_groups: int) -> str:
    """In-order hardware queue ``inst`` issues on.

    All XPUs form one pool; the VPU is split into ``lane_groups`` lane
    groups, each serving the scheduler groups congruent to it (Section
    V-B: groups are programmed individually); the BSK rides the XPU HBM
    channel group and every other transfer the VPU's.  The HW-scheduler
    and the verifier's occupancy model both queue through here, so they
    agree on one resource model.
    """
    engine = inst.engine
    if engine is Engine.DMA:
        return "dma_xpu" if inst.op is DmaOp.LOAD_BSK else "dma_vpu"
    if engine is Engine.VPU:
        return f"vpu{inst.group % lane_groups}"
    return "xpu"


class InstructionStream:
    """An append-only, dependency-checked instruction list.

    Instruction ids are emission indices, so "already emitted" is an
    integer comparison rather than a set of seen ids.
    """

    def __init__(self) -> None:
        self._instructions: List[Instruction] = []

    def emit(
        self,
        op: object,
        group: int,
        depends_on: Iterable[int] = (),
        count: int = 0,
        data_bytes: int = 0,
        macs: int = 0,
    ) -> Instruction:
        """Append an instruction; dependencies must already exist."""
        deps = tuple(depends_on)
        inst_id = len(self._instructions)
        for d in deps:
            if not 0 <= d < inst_id:
                raise ValueError(f"dependency {d} not yet emitted")
        inst = Instruction(inst_id, op, group, count, data_bytes, macs, deps)
        self._instructions.append(inst)
        return inst

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __len__(self) -> int:
        return len(self._instructions)

    def by_engine(self, engine: Engine) -> List[Instruction]:
        return [i for i in self._instructions if i.engine is engine]

    def groups(self) -> List[int]:
        return sorted({i.group for i in self._instructions})

    def validate_dependencies(self) -> None:
        """Check the stream is a DAG in emission order (deps point backwards)."""
        for inst in self._instructions:
            for d in inst.depends_on:
                if not 0 <= d < inst.inst_id:
                    raise ValueError(
                        f"instruction {inst.inst_id} depends on unretired {d}"
                    )
