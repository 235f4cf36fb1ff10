"""Tests for the binary ISA encoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accelerator import MorphlingConfig
from repro.core.isa import OPCODES, DmaOp, Engine, InstructionStream, VpuOp, XpuOp
from repro.core.isa_encoding import decode_stream, encode_stream, stream_size_bytes
from repro.core.scheduler import LayerDemand, SwScheduler
from repro.params import get_params
from repro.verify import verify_stream

from .._programs import Row, columns, rows

FIELDS = ("ids", "code", "group", "count", "data_bytes", "macs", "dep_ptr", "deps")

_BLOB = encode_stream(SwScheduler(MorphlingConfig(), get_params("I")).schedule(
    [LayerDemand("a", 100), LayerDemand("b", 30, 5000)]))


def roundtrip(row):
    """One row through the wire format and back."""
    return rows(decode_stream(encode_stream(columns([row]))))


class TestSingleInstruction:
    def test_xpu_roundtrip(self):
        row = Row(7, XpuOp.BLIND_ROTATE, group=3, count=64, depends_on=(1, 2))
        assert roundtrip(row) == [row]

    def test_dma_payload_roundtrip(self):
        row = Row(9, DmaOp.LOAD_BSK, group=0, data_bytes=16_400_000)
        assert roundtrip(row) == [row]

    def test_palu_macs_roundtrip(self):
        row = Row(4, VpuOp.P_ALU, group=1, macs=123_456_789)
        assert roundtrip(row) == [row]

    def test_truncated_record_rejected(self):
        data = encode_stream(columns([Row(0, VpuOp.KEY_SWITCH, 0, count=4)]))
        with pytest.raises(ValueError):
            decode_stream(data[:-5])

    def test_corrupt_opcode_rejected(self):
        data = bytearray(encode_stream(columns([Row(0, XpuOp.BLIND_ROTATE, 0)])))
        data[1] = 200  # impossible opcode index
        with pytest.raises(ValueError):
            decode_stream(bytes(data))

    def test_corrupt_reserved_field_rejected(self):
        data = bytearray(encode_stream(columns([Row(0, XpuOp.BLIND_ROTATE, 0)])))
        data[18] = 1  # reserved halfword
        with pytest.raises(ValueError):
            decode_stream(bytes(data))

    @pytest.mark.parametrize("code", [-1, len(OPCODES), 99])
    def test_unknown_opcode_has_no_encoding(self, code):
        with pytest.raises(ValueError, match="unknown opcode"):
            encode_stream(columns([Row(0, code, 0)]))

    @given(
        op=st.sampled_from(OPCODES),
        group=st.integers(0, 2**16 - 1),
        count=st.integers(0, 2**20),
        inst_id=st.integers(0, 2**20),
        deps=st.lists(st.integers(0, 2**20), max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_roundtrip(self, op, group, count, inst_id, deps):
        sizes = {}
        if op.engine is Engine.DMA:
            sizes["data_bytes"] = count * 64
        elif op is VpuOp.P_ALU:
            sizes["macs"] = count * 7
        row = Row(inst_id, op, group, count=count, depends_on=tuple(deps), **sizes)
        assert roundtrip(row) == [row]


class TestStream:
    @pytest.fixture()
    def program(self):
        sched = SwScheduler(MorphlingConfig(), get_params("I"))
        return sched.schedule([LayerDemand("a", 100), LayerDemand("b", 30, 5000)])

    def test_whole_program_roundtrip(self, program):
        decoded, cols = decode_stream(encode_stream(program)), program.columns()
        for name in FIELDS:
            assert getattr(decoded, name).tolist() == getattr(cols, name).tolist(), name
        assert encode_stream(decoded) == encode_stream(program)

    def test_size_accounting(self, program):
        blob = encode_stream(program)
        assert len(blob) == stream_size_bytes(program)
        assert stream_size_bytes(decode_stream(blob)) == len(blob)

    def test_program_is_tiny_next_to_its_data(self, program):
        data_bytes = int(program.columns().data_bytes.sum())
        assert len(encode_stream(program)) < data_bytes / 1000

    def test_empty_stream(self):
        assert len(decode_stream(b"")) == 0
        assert encode_stream(InstructionStream()) == b""

    def test_decoded_ids_are_the_blobs_own(self, program):
        """A blob whose ids are not positions decodes as written: the
        verifier, not the decoder, reports a duplicate id."""
        blob = bytearray(encode_stream(program))
        second = 24 + 4 * int(np.diff(program.columns().dep_ptr)[0])
        blob[second + 20:second + 24] = (0).to_bytes(4, "little")  # row 1's id := 0
        decoded = decode_stream(bytes(blob))
        assert decoded.ids[:3].tolist() == [0, 0, 2]
        report = verify_stream(decoded, passes=["VER002"])
        assert [(d.message, d.instruction_index) for d in report.errors] == [
            ("duplicate instruction id 0", 1)]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_corrupted_binary_is_refused_or_decodes(self, data):
        """A corrupted or truncated program decodes or raises ``ValueError``,
        and what decodes verifies without raising."""
        blob = _BLOB
        if data.draw(st.booleans()):
            corrupted = blob[:data.draw(st.integers(0, len(blob) - 1))]
        else:
            edits = data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                                 st.integers(1, 255)),
                                       min_size=1, max_size=3))
            buf = bytearray(blob)
            for pos, delta in edits:
                buf[pos] = (buf[pos] + delta) % 256
            corrupted = bytes(buf)
        try:
            decoded = decode_stream(corrupted)
        except ValueError:
            return
        assert decoded.dep_ptr[-1] == len(decoded.deps)
        verify_stream(decoded)

    def test_decoded_program_still_schedulable(self, program):
        """A shipped-and-decoded program must execute identically."""
        from repro.core.scheduler import HwScheduler

        hw = HwScheduler(MorphlingConfig(), get_params("I"))
        direct = hw.execute(program)
        cols = decode_stream(encode_stream(program))
        rebuilt = InstructionStream()
        rebuilt.emit_block(cols.code, cols.group, cols.count, cols.data_bytes,
                           cols.macs, np.diff(cols.dep_ptr), cols.deps)
        assert rows(rebuilt) == rows(program)
        replayed = hw.execute(rebuilt)
        assert replayed.total_seconds == pytest.approx(direct.total_seconds)
