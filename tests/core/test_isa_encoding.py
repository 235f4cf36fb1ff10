"""Tests for the binary ISA encoding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accelerator import MorphlingConfig
from repro.core.isa import DmaOp, Instruction, InstructionStream, VpuOp, XpuOp
from repro.core.isa_encoding import (
    decode_instruction,
    decode_stream,
    encode_instruction,
    encode_stream,
    stream_size_bytes,
)
from repro.core.scheduler import LayerDemand, SwScheduler
from repro.params import get_params


_BLOB = encode_stream(SwScheduler(MorphlingConfig(), get_params("I")).schedule(
    [LayerDemand("a", 100), LayerDemand("b", 30, 5000)]))


def roundtrip(inst):
    decoded, _ = decode_instruction(encode_instruction(inst))
    return decoded


class TestSingleInstruction:
    def test_xpu_roundtrip(self):
        inst = Instruction(7, XpuOp.BLIND_ROTATE, group=3, count=64, depends_on=(1, 2))
        assert roundtrip(inst) == inst

    def test_dma_payload_roundtrip(self):
        inst = Instruction(9, DmaOp.LOAD_BSK, group=0, data_bytes=16_400_000)
        assert roundtrip(inst) == inst

    def test_palu_macs_roundtrip(self):
        inst = Instruction(4, VpuOp.P_ALU, group=1, macs=123_456_789)
        assert roundtrip(inst) == inst

    def test_truncated_record_rejected(self):
        data = encode_instruction(Instruction(0, VpuOp.KEY_SWITCH, 0, count=4))
        with pytest.raises(ValueError):
            decode_instruction(data[:-5])

    def test_corrupt_opcode_rejected(self):
        data = bytearray(encode_instruction(Instruction(0, XpuOp.BLIND_ROTATE, 0)))
        data[1] = 200  # impossible opcode index
        with pytest.raises(ValueError):
            decode_instruction(bytes(data))

    def test_corrupt_reserved_field_rejected(self):
        data = bytearray(encode_instruction(Instruction(0, XpuOp.BLIND_ROTATE, 0)))
        data[18] = 1  # reserved halfword
        with pytest.raises(ValueError):
            decode_instruction(bytes(data))

    @given(
        op=st.sampled_from(list(XpuOp) + list(VpuOp) + list(DmaOp)),
        group=st.integers(0, 2**16 - 1),
        count=st.integers(0, 2**20),
        inst_id=st.integers(0, 2**20),
        deps=st.lists(st.integers(0, 2**20), max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_roundtrip(self, op, group, count, inst_id, deps):
        from repro.core.isa import Engine

        sizes = {}
        if op.engine is Engine.DMA:
            sizes["data_bytes"] = count * 64
        elif op is VpuOp.P_ALU:
            sizes["macs"] = count * 7
        inst = Instruction(inst_id, op, group, count=count,
                           depends_on=tuple(deps), **sizes)
        assert roundtrip(inst) == inst


class TestStream:
    @pytest.fixture()
    def program(self):
        sched = SwScheduler(MorphlingConfig(), get_params("I"))
        return sched.schedule([LayerDemand("a", 100), LayerDemand("b", 30, 5000)])

    def test_whole_program_roundtrip(self, program):
        decoded = decode_stream(encode_stream(program))
        assert decoded == list(program)

    def test_size_accounting(self, program):
        blob = encode_stream(program)
        assert len(blob) == stream_size_bytes(program)

    def test_program_is_tiny_next_to_its_data(self, program):
        data_bytes = sum(inst.data_bytes for inst in program)
        assert len(encode_stream(program)) < data_bytes / 1000

    def test_empty_stream(self):
        assert decode_stream(b"") == []
        assert encode_stream(InstructionStream()) == b""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_corrupted_binary_is_refused_or_decodes(self, data):
        """A corrupted or truncated program decodes or raises ``ValueError``."""
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
        assert all(isinstance(inst, Instruction) for inst in decoded)

    def test_decoded_program_still_schedulable(self, program):
        """A shipped-and-decoded program must execute identically."""
        from repro.core.scheduler import HwScheduler

        hw = HwScheduler(MorphlingConfig(), get_params("I"))
        direct = hw.execute(program)
        rebuilt = InstructionStream()
        for inst in decode_stream(encode_stream(program)):
            rebuilt.emit(inst.op, inst.group, inst.depends_on, inst.count,
                         inst.data_bytes, inst.macs)
        assert list(rebuilt) == list(program)
        replayed = hw.execute(rebuilt)
        assert replayed.total_seconds == pytest.approx(direct.total_seconds)
