"""Binary encoding of the custom instruction streams (Section V-E).

The SW-scheduler lowers a program into columns; a real deployment ships
it to the accelerator as a binary stream.  This module defines that wire
format and proves it lossless:

record layout (little-endian)::

    u8  engine      (1 = XPU, 2 = VPU, 3 = DMA)
    u8  opcode      (index in the engine's opcode enum)
    u16 group
    u32 count       (ciphertexts covered)
    u64 payload     (DMA bytes, or P-ALU MACs)
    u16 n_deps
    u16 reserved    (zero)
    u32 inst_id
    u32 x n_deps    dependency instruction ids

``encode_stream`` writes a program's columns row by row;
``decode_stream`` reads them back as :class:`~repro.core.isa.StreamColumns`
that keep the blob's own instruction ids, so duplicate or non-dense ids
still reach the verifier.  ``stream_size_bytes`` is the encoded size.
"""

from __future__ import annotations

import struct

import numpy as np

from .isa import OPCODES, Engine, Program, StreamColumns, VpuOp, as_columns

__all__ = [
    "encode_stream",
    "decode_stream",
    "stream_size_bytes",
]

_HEADER = struct.Struct("<BBHIQHHI")

_ENGINES = (Engine.XPU, Engine.VPU, Engine.DMA)
#: ``(engine, opcode)`` wire pair of every opcode code, and back.
_WIRE = [(_ENGINES.index(op.engine) + 1, list(type(op)).index(op)) for op in OPCODES]
_CODE_OF_WIRE = {wire: code for code, wire in enumerate(_WIRE)}
#: Whether the payload is an opcode's ``data_bytes`` / its ``macs``; the
#: other opcodes carry none.
_DATA = [op.engine is Engine.DMA for op in OPCODES]
_MACS = [op is VpuOp.P_ALU for op in OPCODES]


def encode_stream(stream: Program) -> bytes:
    """Serialize a whole program (preserving emission order)."""
    cols = as_columns(stream)
    if (cols.slot < 0).any():
        raise ValueError("unknown opcode: no wire encoding")
    ptr, deps = cols.dep_ptr.tolist(), cols.deps.tolist()
    payload = np.where(cols.data_bytes != 0, cols.data_bytes, cols.macs)
    out = []
    for row, (inst_id, code, group, count, pay) in enumerate(zip(
            cols.ids.tolist(), cols.code.tolist(), cols.group.tolist(),
            cols.count.tolist(), payload.tolist())):
        n_deps = ptr[row + 1] - ptr[row]
        out.append(_HEADER.pack(*_WIRE[code], group, count, pay, n_deps, 0, inst_id))
        out.append(struct.pack(f"<{n_deps}I", *deps[ptr[row]:ptr[row + 1]]))
    return b"".join(out)


def decode_stream(data: bytes) -> StreamColumns:
    """Decode a binary program back into columns, ids as written."""
    rows, deps, ptr = [], [], [0]
    offset = 0
    while offset < len(data):
        if len(data) - offset < _HEADER.size:
            raise ValueError("truncated instruction record")
        (engine, opcode, group, count, payload,
         n_deps, reserved, inst_id) = _HEADER.unpack_from(data, offset)
        if reserved != 0:
            raise ValueError("corrupt record: reserved field set")
        code = _CODE_OF_WIRE.get((engine, opcode))
        if code is None:
            raise ValueError(f"unknown engine/opcode pair ({engine}, {opcode})")
        if payload >= 2**63:
            raise ValueError(f"payload {payload} out of range")
        offset += _HEADER.size
        if len(data) - offset < 4 * n_deps:
            raise ValueError("truncated dependency list")
        deps += struct.unpack_from(f"<{n_deps}I", data, offset)
        offset += 4 * n_deps
        ptr.append(len(deps))
        rows.append((inst_id, code, group, count,
                     payload * _DATA[code], payload * _MACS[code]))
    ids, code, group, count, data_bytes, macs = np.array(
        rows, dtype=np.int64).reshape(-1, 6).T
    return StreamColumns(ids, code, group, count, data_bytes, macs,
                         np.array(ptr), np.array(deps, dtype=np.int64))


def stream_size_bytes(stream: Program) -> int:
    """Size of a program's binary encoding: one header per instruction
    and four bytes per dependency."""
    cols = as_columns(stream)
    return _HEADER.size * len(cols) + 4 * len(cols.deps)
