"""Hand-built programs for the tests, one :class:`Row` per instruction.

A well-formed program is appended to an ``InstructionStream`` with
``emit_block`` (:func:`stream`); a malformed one - forward, self or
duplicate dependencies, duplicate ids, unknown opcode codes - is built as
``StreamColumns`` directly (:func:`columns`).  :func:`rows` reads any
program back row by row, for the per-instruction reference oracles.
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.isa import (
    OPCODES, DmaOp, Engine, InstructionStream, Program, StreamColumns, VpuOp, XpuOp,
    as_columns,
)


@dataclass(frozen=True)
class Row:
    """One instruction.  ``op`` is an opcode, or an int code outside
    ``OPCODES`` (an opcode no engine dispatches)."""

    inst_id: int
    op: object
    group: int = 0
    count: int = 0
    data_bytes: int = 0
    macs: int = 0
    depends_on: Tuple[int, ...] = ()

    @property
    def code(self) -> int:
        return getattr(self.op, "code", self.op)

    @property
    def engine(self) -> Optional[Engine]:
        return getattr(self.op, "engine", None)


def _fields(rows: Sequence[Row]) -> List[np.ndarray]:
    """Code, group, count, data_bytes and macs of ``rows``, as columns."""
    return [np.array([getattr(r, name) for r in rows], dtype=np.int64)
            for name in ("code", "group", "count", "data_bytes", "macs")]


def _deps(rows: Sequence[Row]) -> np.ndarray:
    return np.array([d for r in rows for d in r.depends_on], dtype=np.int64)


def columns(rows: Sequence[Row]) -> StreamColumns:
    """``rows`` as columns, exactly as given (nothing is checked)."""
    return StreamColumns(
        np.array([r.inst_id for r in rows], dtype=np.int64), *_fields(rows),
        np.cumsum([0] + [len(r.depends_on) for r in rows]), _deps(rows),
    )


def stream(rows: Sequence[Row]) -> InstructionStream:
    """Well-formed ``rows`` (each id its position) appended as one block."""
    assert [r.inst_id for r in rows] == list(range(len(rows)))
    out = InstructionStream()
    out.emit_block(*_fields(rows), [len(r.depends_on) for r in rows], _deps(rows))
    return out


def rows(program: Program) -> List[Row]:
    """``program`` row by row; a code outside ``OPCODES`` stays an int."""
    cols = as_columns(program)
    ptr, deps = cols.dep_ptr.tolist(), cols.deps.tolist()
    return [
        Row(inst_id, OPCODES[code] if 0 <= code < len(OPCODES) else code,
            group, count, data_bytes, macs, tuple(deps[ptr[i]:ptr[i + 1]]))
        for i, (inst_id, code, group, count, data_bytes, macs) in enumerate(zip(
            cols.ids.tolist(), cols.code.tolist(), cols.group.tolist(),
            cols.count.tolist(), cols.data_bytes.tolist(), cols.macs.tolist()))
    ]


def chain(params, group=0, count=4, base=0) -> List[Row]:
    """A well-formed single-group bootstrap chain (loads + MS..STORE),
    ids from ``base``."""
    lwe = count * params.lwe_bytes
    return [
        Row(base + 0, DmaOp.LOAD_LWE, group, count=count, data_bytes=lwe),
        Row(base + 1, DmaOp.LOAD_BSK, group, data_bytes=params.bsk_transform_bytes),
        Row(base + 2, DmaOp.LOAD_KSK, group, data_bytes=params.ksk_bytes),
        Row(base + 3, VpuOp.MODULUS_SWITCH, group, count=count, depends_on=(base + 0,)),
        Row(base + 4, XpuOp.BLIND_ROTATE, group, count=count,
            depends_on=(base + 3, base + 1)),
        Row(base + 5, VpuOp.SAMPLE_EXTRACT, group, count=count, depends_on=(base + 4,)),
        Row(base + 6, VpuOp.KEY_SWITCH, group, count=count,
            depends_on=(base + 5, base + 2)),
        Row(base + 7, DmaOp.STORE_LWE, group, count=count, data_bytes=lwe,
            depends_on=(base + 6,)),
    ]
