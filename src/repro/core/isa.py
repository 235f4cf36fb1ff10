"""Custom instruction set for the XPU, VPU and DMA engines (Section V-E).

The SW-scheduler lowers an application into three instruction streams;
the HW-scheduler dispatches them respecting the declared dependencies.
Instructions are deliberately coarse-grained - one XPU instruction is a
whole blind rotation of a resident batch - matching the granularity the
paper schedules at (Fig. 6).

A program is stored as columns (:class:`StreamColumns`: one array per
field, dependencies as offsets into one flat id array); the schedulers
and the verifier read the arrays, and :class:`Instruction` is the record
view built on demand (binary encoding, hand-built programs, tests).
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import ArrayLike

__all__ = [
    "Engine",
    "XpuOp",
    "VpuOp",
    "DmaOp",
    "OPCODES",
    "Instruction",
    "InstructionStream",
    "StreamColumns",
]


class Engine(enum.Enum):
    XPU = "xpu"
    VPU = "vpu"
    DMA = "dma"


class _Opcode(enum.Enum):
    """Base of the per-engine opcode enums.

    Every member carries the engine that dispatches it and its ``code``
    (index into :data:`OPCODES`, the opcode column's value) as plain
    attributes: hashing an enum member into a table (``Enum.__hash__``
    runs in Python) costs several times an attribute read.
    """

    engine: Engine
    code: int


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

#: Every opcode, indexed by its ``code``.
OPCODES: Tuple[_Opcode, ...] = (*XpuOp, *VpuOp, *DmaOp)
for _op in OPCODES:
    _op.code = OPCODES.index(_op)

#: The queues every configuration has; VPU lane group ``g`` queues on
#: ``vpu{g}`` after them.
_FIXED_QUEUES = ("xpu", "dma_xpu", "dma_vpu")
#: Queue per opcode code (-1: the row's VPU lane group).  The extra last
#: entry is code -1's: an unknown opcode queues on the XPU pool, as
#: anything that is neither DMA nor VPU work does.
_QUEUE_OF_CODE = np.array([
    -1 if op.engine is Engine.VPU else 0 if op.engine is Engine.XPU
    else 1 if op is DmaOp.LOAD_BSK else 2 for op in OPCODES
] + [0])


class Instruction:
    """One scheduled operation: the record view of a program row.

    ``count`` is the number of ciphertexts the op covers (batch size for
    XPU/VPU ops); ``data_bytes`` the DMA payload; ``macs`` the P-ALU work.
    ``depends_on`` lists instruction ids that must retire first.
    ``engine`` is the opcode's engine, resolved once here.

    Slotted (no per-instance ``__dict__``).  Instructions are values -
    compared and hashed by their fields - and nothing mutates one after
    construction.
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


@dataclass(frozen=True, eq=False)
class StreamColumns:
    """A program as one array per field.

    Row ``i`` is the instruction with id ``ids[i]`` and opcode
    ``OPCODES[code[i]]`` (code -1: an opcode no engine dispatches); its
    dependency ids are ``deps[dep_ptr[i]:dep_ptr[i + 1]]``.  ``ops`` keeps
    foreign records' own opcode objects for messages; a stream's are
    implied by ``code``.
    """

    ids: np.ndarray
    code: np.ndarray
    group: np.ndarray
    count: np.ndarray
    data_bytes: np.ndarray
    macs: np.ndarray
    dep_ptr: np.ndarray
    deps: np.ndarray
    ops: Optional[Sequence[object]] = None

    @classmethod
    def from_records(cls, records: Iterable[object]) -> "StreamColumns":
        """Columns of instruction-shaped records, converted once: a missing
        field takes its neutral default (the id is the position)."""
        records = list(records)
        ops = [getattr(r, "op", None) for r in records]
        deps = [tuple(getattr(r, "depends_on", ())) for r in records]

        def column(values: Iterable[int]) -> np.ndarray:
            return np.array(list(values), dtype=np.int64)

        return cls(
            column(getattr(r, "inst_id", i) for i, r in enumerate(records)),
            column(op.code if isinstance(op, _Opcode) else -1 for op in ops),
            *(column(getattr(r, name, 0) for r in records)
              for name in ("group", "count", "data_bytes", "macs")),
            np.cumsum([0] + [len(d) for d in deps]),
            column(d for ds in deps for d in ds),
            ops,
        )

    def __len__(self) -> int:
        return len(self.code)

    def op(self, row: int) -> object:
        return self.ops[row] if self.ops is not None else OPCODES[self.code[row]]

    @cached_property
    def owner(self) -> np.ndarray:
        """Row of each entry of ``deps``."""
        return np.repeat(np.arange(len(self)), np.diff(self.dep_ptr))

    @cached_property
    def _dense(self) -> bool:
        return bool(np.array_equal(self.ids, np.arange(len(self))))

    def resolve(self, ids: ArrayLike, before: ArrayLike,
                among: Optional[np.ndarray] = None) -> np.ndarray:
        """For each id of ``ids``, the latest row below ``before`` (taken
        elementwise) with that id, counting only rows where the mask
        ``among`` is set; -1 where there is none."""
        ids = np.asarray(ids)
        n = len(self)
        if self._dense:  # a row's id is its index
            rows = np.where((ids >= 0) & (ids < before), ids, -1)
            if among is not None:
                rows = np.where(among[rows] & (rows >= 0), rows, -1)
            return rows
        # Sort candidate rows by (id rank, row); search (rank, before).
        cand = np.arange(n) if among is None else np.flatnonzero(among)
        known = np.unique(self.ids[cand])
        if not len(known):
            return np.full(ids.shape, -1)
        keys = np.sort(np.searchsorted(known, self.ids[cand]) * (n + 1) + cand)
        rank = np.minimum(np.searchsorted(known, ids), len(known) - 1)
        pos = np.searchsorted(keys, rank * (n + 1) + before) - 1
        key = keys[pos]
        hit = (known[rank] == ids) & (pos >= 0) & (key // (n + 1) == rank)
        return np.where(hit, key % (n + 1), -1)

    def dep_rows(self) -> Iterator[array]:
        """Each row's dependencies as the rows they resolve to (the latest
        earlier row with that id); an id no earlier row carries counts as
        already retired and is dropped.  Rows are sliced lazily out of two
        flat machine-word arrays: no per-row container outlives its use."""
        rows = self.resolve(self.deps, self.owner)
        kept = rows >= 0
        ptr = array("q", np.concatenate(([0], np.cumsum(kept)))[self.dep_ptr].tobytes())
        flat = array("q", rows[kept].tobytes())
        return (flat[a:b] for a, b in zip(ptr, ptr[1:]))

    def queues(self, lane_groups: int) -> Tuple[List[int], List[str]]:
        """In-order hardware queue of every row, and the queue names.

        All XPUs form one pool; the VPU is split into ``lane_groups`` lane
        groups, each serving the scheduler groups congruent to it (Section
        V-B: groups are programmed individually); the BSK rides the XPU HBM
        channel group and every other transfer the VPU's.  The HW-scheduler
        and the verifier's occupancy model both queue through here, so they
        agree on one resource model.
        """
        queue = _QUEUE_OF_CODE[self.code]
        vpu = queue < 0
        queue[vpu] = len(_FIXED_QUEUES) + self.group[vpu] % lane_groups
        names = [*_FIXED_QUEUES, *(f"vpu{g}" for g in range(lane_groups))]
        return queue.tolist(), names


class InstructionStream:
    """An append-only, dependency-checked program, stored as columns.

    Instruction ids are emission indices, so "already emitted" is an
    integer comparison rather than a set of seen ids.  Iterating yields
    :class:`Instruction` records built on demand; the schedulers and the
    verifier read :meth:`columns` instead.
    """

    def __init__(self) -> None:
        # (code, group, count, data_bytes, macs, n_deps, deps) arrays.
        self._blocks: List[tuple] = [(np.zeros(0, dtype=np.int64),) * 7]
        self._len = 0
        self._columns: Optional[StreamColumns] = None

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
        inst = Instruction(self._len, op, group, count, data_bytes, macs, deps)
        self.emit_block([op.code], [group], [count], [data_bytes], [macs],
                        [len(deps)], deps)
        return inst

    def emit_block(self, code: ArrayLike, group: ArrayLike, count: ArrayLike,
                   data_bytes: ArrayLike, macs: ArrayLike, n_deps: ArrayLike,
                   deps: ArrayLike) -> None:
        """Append rows given as columns: row ``i`` lists the next
        ``n_deps[i]`` ids of ``deps``, which must already exist."""
        block = tuple(np.asarray(c, dtype=np.int64) for c in
                      (code, group, count, data_bytes, macs, n_deps, deps))
        first = self._len
        rows = len(block[0])
        if ((block[0] < 0) | (block[0] >= len(OPCODES))).any():
            raise ValueError("unknown opcode")
        if min((c.min(initial=0) for c in block[2:5])) < 0:
            raise ValueError("instruction sizes must be non-negative")
        owner = np.repeat(np.arange(first, first + rows), block[5])
        late = (block[6] < 0) | (block[6] >= owner)
        if late.any():
            raise ValueError(f"dependency {block[6][late][0]} not yet emitted")
        self._blocks.append(block)
        self._len += rows
        self._columns = None

    def columns(self) -> StreamColumns:
        """The program as columns (consolidated once, then cached)."""
        if self._columns is None:
            self._blocks = [tuple(np.concatenate(f) for f in zip(*self._blocks))]
            code, group, count, data_bytes, macs, n_deps, deps = self._blocks[0]
            self._columns = StreamColumns(
                np.arange(self._len), code, group, count, data_bytes, macs,
                np.concatenate(([0], np.cumsum(n_deps))), deps,
            )
        return self._columns

    def __iter__(self) -> Iterator[Instruction]:
        cols = self.columns()
        ptr, deps = cols.dep_ptr.tolist(), cols.deps.tolist()
        rows = zip(cols.code.tolist(), cols.group.tolist(), cols.count.tolist(),
                   cols.data_bytes.tolist(), cols.macs.tolist())
        for i, (code, group, count, data_bytes, macs) in enumerate(rows):
            yield Instruction(i, OPCODES[code], group, count, data_bytes, macs,
                              tuple(deps[ptr[i]:ptr[i + 1]]))

    def __len__(self) -> int:
        return self._len

    def groups(self) -> List[int]:
        return np.unique(self.columns().group).tolist()

    def validate_dependencies(self) -> None:
        """Check the stream is a DAG in emission order (deps point backwards)."""
        cols = self.columns()
        late = np.flatnonzero((cols.deps < 0) | (cols.deps >= cols.owner))
        if len(late):
            raise ValueError(f"instruction {cols.owner[late[0]]} depends on "
                             f"unretired {cols.deps[late[0]]}")
