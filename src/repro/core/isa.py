"""Custom instruction set for the XPU, VPU and DMA engines (Section V-E).

The SW-scheduler lowers an application into three instruction streams;
the HW-scheduler dispatches them respecting the declared dependencies.
Instructions are deliberately coarse-grained - one XPU instruction is a
whole blind rotation of a resident batch - matching the granularity the
paper schedules at (Fig. 6).

A program is columns and nothing else (:class:`StreamColumns`: one
array per field, dependencies as offsets into one flat id array): the
SW-scheduler builds them through :class:`InstructionStream`, and the
HW-scheduler, the verifier and the binary encoding read the arrays.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, Optional, Tuple, Union

import numpy as np
from numpy.typing import ArrayLike

__all__ = [
    "Engine",
    "XpuOp",
    "VpuOp",
    "DmaOp",
    "OPCODES",
    "InstructionStream",
    "StreamColumns",
    "Program",
    "as_columns",
    "DepView",
    "opcode_mask",
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


def opcode_mask(ops: Iterable[_Opcode]) -> np.ndarray:
    """Table over opcode codes, set at ``ops``: indexed by
    :attr:`StreamColumns.slot`, it masks those rows (its extra last entry
    serves unknown codes)."""
    table = np.zeros(len(OPCODES) + 1, dtype=bool)
    table[[op.code for op in ops]] = True
    return table


#: A program's dependencies as rows (:attr:`StreamColumns.dep_view`).
DepView = Tuple[array, array, List[Tuple[int, array]]]


@dataclass(frozen=True, eq=False)
class StreamColumns:
    """A program as one array per field.

    Row ``i`` is the instruction with id ``ids[i]`` and opcode
    ``OPCODES[code[i]]`` (a code outside ``OPCODES``, as a hand-built
    program may carry, is an opcode no engine dispatches); its dependency
    ids are ``deps[dep_ptr[i]:dep_ptr[i + 1]]``.
    """

    ids: np.ndarray
    code: np.ndarray
    group: np.ndarray
    count: np.ndarray
    data_bytes: np.ndarray
    macs: np.ndarray
    dep_ptr: np.ndarray
    deps: np.ndarray

    def __len__(self) -> int:
        return len(self.code)

    @cached_property
    def slot(self) -> np.ndarray:
        """``code`` as an index into the per-opcode tables
        (:func:`opcode_mask`): a code outside ``OPCODES`` reads -1, their
        extra last entry."""
        unknown = (self.code < 0) | (self.code >= len(OPCODES))
        return np.where(unknown, -1, self.code) if unknown.any() else self.code

    def op_name(self, row: int) -> str:
        """Row ``row``'s opcode name; an unknown code is named by its number."""
        slot = int(self.slot[row])
        return OPCODES[slot].value if slot >= 0 else str(self.code[row])

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

    @cached_property
    def dep_view(self) -> DepView:
        """Each row's dependencies as the rows they resolve to (the latest
        earlier row with that id), resolved once per program: every row's
        first and second dependency row, then ``(row, rest)`` for the few
        rows with more.  Row ``len(self)`` stands for "none" and for an id
        no earlier row carries (already retired)."""
        n, ptr = len(self), self.dep_ptr
        rows = self.resolve(self.deps, self.owner)
        rows = np.append(np.where(rows >= 0, rows, n), n)  # the last: "none"
        width = np.diff(ptr)
        first = rows[np.where(width > 0, ptr[:-1], -1)]
        second = rows[np.where(width > 1, ptr[:-1] + 1, -1)]
        return (array("q", first.tobytes()), array("q", second.tobytes()),
                [(r, array("q", rows[ptr[r] + 2:ptr[r + 1]].tobytes()))
                 for r in np.flatnonzero(width > 2).tolist()])

    def queues(self, lane_groups: int) -> Tuple[np.ndarray, List[str]]:
        """In-order hardware queue of every row, and the queue names.

        All XPUs form one pool; the VPU is split into ``lane_groups`` lane
        groups, each serving the scheduler groups congruent to it (Section
        V-B: groups are programmed individually); the BSK rides the XPU HBM
        channel group and every other transfer the VPU's.  The HW-scheduler
        and the verifier's occupancy model both queue through here, so they
        agree on one resource model.
        """
        queue = _QUEUE_OF_CODE[self.slot]
        queue = np.where(queue < 0, len(_FIXED_QUEUES) + self.group % lane_groups, queue)
        names = [*_FIXED_QUEUES, *(f"vpu{g}" for g in range(lane_groups))]
        return queue, names


class InstructionStream:
    """An append-only, dependency-checked program, built block by block.

    Instruction ids are emission indices, so "already emitted" is an
    integer comparison rather than a set of seen ids.  Readers take the
    program as :meth:`columns`.
    """

    def __init__(self) -> None:
        # (code, group, count, data_bytes, macs, n_deps, deps) arrays.
        self._blocks: List[tuple] = [(np.zeros(0, dtype=np.int64),) * 7]
        self._len = 0
        self._columns: Optional[StreamColumns] = None

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

    def __len__(self) -> int:
        return self._len

    def groups(self) -> List[int]:
        return np.unique(self.columns().group).tolist()


#: A program as its readers take it: a stream, or columns built elsewhere
#: (a decoded binary, a hand-built program).
Program = Union[InstructionStream, StreamColumns]


def as_columns(program: Program) -> StreamColumns:
    """``program`` as columns: a stream hands over its own arrays (never
    copied)."""
    return program if isinstance(program, StreamColumns) else program.columns()
