"""Tests for the ISA and the SW/HW co-scheduler."""

import pytest

from repro.core.accelerator import MorphlingConfig
from repro.core.isa import OPCODES, DmaOp, Engine, InstructionStream, VpuOp, XpuOp
from repro.core.scheduler import HwScheduler, LayerDemand, SwScheduler, run_workload
from repro.core.simulator import simulate_bootstrap
from repro.params import get_params
from repro.verify import verify_stream

from .._programs import Row, columns, rows, stream as emitted


def _one_row(code, count=0, macs=0):
    """A stream of ``code`` (no dependencies) appended as a block."""
    s = InstructionStream()
    s.emit_block([code], [0], [count], [0], [macs], [0], [])
    return s


class TestInstruction:
    def test_engine_dispatch(self):
        assert XpuOp.BLIND_ROTATE.engine is Engine.XPU
        assert VpuOp.KEY_SWITCH.engine is Engine.VPU
        assert DmaOp.LOAD_BSK.engine is Engine.DMA
        assert [op.code for op in OPCODES] == list(range(len(OPCODES)))

    def test_rejects_negative_sizes(self):
        with pytest.raises(ValueError, match="non-negative"):
            _one_row(VpuOp.P_ALU.code, macs=-1)

    def test_rejects_unknown_opcode(self):
        for code in (-1, len(OPCODES), 99):
            with pytest.raises(ValueError, match="unknown opcode"):
                _one_row(code)

    def test_every_opcode_carries_its_engine(self):
        assert {op.engine for op in XpuOp} == {Engine.XPU}
        assert {op.engine for op in VpuOp} == {Engine.VPU}
        assert {op.engine for op in DmaOp} == {Engine.DMA}

    @pytest.mark.parametrize("code", [-1, len(OPCODES), 99])
    def test_unknown_code_reads_as_unknown(self, code):
        """A hand-built code outside ``OPCODES`` indexes the tables' extra
        last entry and is named by its number."""
        cols = columns([Row(0, DmaOp.LOAD_LWE), Row(1, code)])
        assert cols.slot.tolist() == [DmaOp.LOAD_LWE.code, -1]
        assert [cols.op_name(0), cols.op_name(1)] == ["load_lwe", str(code)]
        queues, names = cols.queues(2)
        assert [names[q] for q in queues] == ["dma_vpu", "xpu"]


class TestInstructionStream:
    def test_emit_assigns_sequential_ids(self):
        s = emitted([Row(0, DmaOp.LOAD_LWE, 0)])
        s.emit_block([VpuOp.MODULUS_SWITCH.code] * 2, [0, 0], [1, 1], [0, 0],
                     [0, 0], [1, 1], [0, 1])
        assert s.columns().ids.tolist() == [0, 1, 2]

    def test_forward_dependency_rejected(self):
        s = InstructionStream()
        with pytest.raises(ValueError, match="not yet emitted"):
            s.emit_block([VpuOp.MODULUS_SWITCH.code], [0], [0], [0], [0], [1], [99])

    def test_blocks_append_as_columns(self):
        s = emitted([Row(0, DmaOp.LOAD_LWE, 0, count=2, data_bytes=64)])
        s.emit_block([XpuOp.BLIND_ROTATE.code, VpuOp.P_ALU.code], [0, 1],
                     [2, 0], [0, 0], [0, 9], [1, 2], [0, 0, 1])
        cols = s.columns()
        assert cols.code.tolist() == [DmaOp.LOAD_LWE.code,
                                      XpuOp.BLIND_ROTATE.code, VpuOp.P_ALU.code]
        assert cols.deps.tolist() == [0, 0, 1]
        assert cols.dep_ptr.tolist() == [0, 0, 1, 3]
        assert rows(s) == [
            Row(0, DmaOp.LOAD_LWE, 0, count=2, data_bytes=64),
            Row(1, XpuOp.BLIND_ROTATE, 0, count=2, depends_on=(0,)),
            Row(2, VpuOp.P_ALU, 1, macs=9, depends_on=(0, 1)),
        ]
        assert len(s) == 3 and s.groups() == [0, 1]

    def test_block_rows_are_checked_like_emitted_ones(self):
        s = emitted([Row(0, DmaOp.LOAD_LWE, 0)])
        with pytest.raises(ValueError, match="not yet emitted"):
            s.emit_block([VpuOp.MODULUS_SWITCH.code] * 2, [0, 0], [1, 1],
                         [0, 0], [0, 0], [1, 1], [0, 2])
        with pytest.raises(ValueError, match="unknown opcode"):
            s.emit_block([-1], [0], [0], [0], [0], [0], [])
        with pytest.raises(ValueError, match="non-negative"):
            s.emit_block([VpuOp.P_ALU.code], [0], [0], [0], [-5], [0], [])
        assert len(s) == 1  # nothing was appended by the refused blocks

    def test_queues_keep_their_names(self):
        s = emitted([Row(i, op, group) for i, (op, group) in enumerate((
            (XpuOp.BLIND_ROTATE, 0), (DmaOp.LOAD_BSK, 0), (DmaOp.LOAD_LWE, 0),
            (VpuOp.KEY_SWITCH, 5)))])
        queues, names = s.columns().queues(4)
        assert [names[q] for q in queues] == ["xpu", "dma_xpu", "dma_vpu", "vpu1"]


class TestSwScheduler:
    @pytest.fixture()
    def sched(self):
        return SwScheduler(MorphlingConfig(), get_params("I"))

    def test_group_size_is_64_for_set_i(self, sched):
        """16 bootstrap cores x 4 resident streams (Fig. 6's grouping)."""
        assert sched.group_size == 64

    def test_dependency_chain_per_group(self, sched):
        stream = rows(sched.schedule([LayerDemand("l", 64)]))
        ops = [i.op for i in stream]
        # One group: 3 loads, MS, BR, SE, KS, store.
        assert ops.count(XpuOp.BLIND_ROTATE) == 1
        br = next(i for i in stream if i.op is XpuOp.BLIND_ROTATE)
        ms = next(i for i in stream if i.op is VpuOp.MODULUS_SWITCH)
        ks = next(i for i in stream if i.op is VpuOp.KEY_SWITCH)
        assert ms.inst_id in br.depends_on
        se = next(i for i in stream if i.op is VpuOp.SAMPLE_EXTRACT)
        assert br.inst_id in se.depends_on
        assert se.inst_id in ks.depends_on

    def test_large_layer_splits_into_groups(self, sched):
        stream = rows(sched.schedule([LayerDemand("l", 200)]))
        brs = [i for i in stream if i.op is XpuOp.BLIND_ROTATE]
        assert len(brs) == 4  # ceil(200/64)
        assert sum(i.count for i in brs) == 200

    def test_layer_barrier_enforced(self, sched):
        stream = rows(sched.schedule([LayerDemand("a", 10), LayerDemand("b", 10)]))
        stores = [i for i in stream if i.op is DmaOp.STORE_LWE]
        second_layer_loads = [
            i for i in stream
            if i.op is DmaOp.LOAD_LWE and i.group == 1
        ]
        assert second_layer_loads
        assert stores[0].inst_id in second_layer_loads[0].depends_on

    def test_linear_macs_emit_palu(self, sched):
        stream = rows(sched.schedule([LayerDemand("l", 10, linear_macs=1000)]))
        palu = [i for i in stream if i.op is VpuOp.P_ALU]
        assert len(palu) == 1
        assert palu[0].macs == 1000

    def test_stream_validates(self, sched):
        stream = sched.schedule([LayerDemand("l", 100), LayerDemand("m", 50)])
        cols = stream.columns()
        assert (cols.deps < cols.owner).all()  # a DAG in emission order
        assert verify_stream(stream, passes=["VER001", "VER002"]).diagnostics == []

    def test_empty_layer_keeps_the_barrier(self):
        """A layer with no bootstraps and no linear work emits nothing and
        leaves the barrier as it is: the next layer still waits on the
        layer before it."""
        cfg, p = MorphlingConfig.morphling(), get_params("III")
        a, b = LayerDemand("a", 200), LayerDemand("b", 200)
        with_empty = SwScheduler(cfg, p).schedule([a, LayerDemand("z", 0), b])
        without = SwScheduler(cfg, p).schedule([a, b])
        got, want = with_empty.columns(), without.columns()
        for name in ("ids", "code", "group", "count", "data_bytes", "macs",
                     "dep_ptr", "deps"):
            assert getattr(got, name).tolist() == getattr(want, name).tolist(), name
        hw = HwScheduler(cfg, p)
        assert hw.execute(with_empty).total_seconds == hw.execute(without).total_seconds


class TestHwScheduler:
    def test_empty_stream_zero_time(self):
        hw = HwScheduler(MorphlingConfig(), get_params("I"))
        res = hw.execute(InstructionStream())
        assert res.total_seconds == 0.0

    def test_empty_stream_busy_times_are_floats(self):
        hw = HwScheduler(MorphlingConfig(), get_params("I"))
        busy = hw.execute(InstructionStream()).engine_busy_seconds
        assert busy == {"xpu": 0.0, "vpu": 0.0, "dma_xpu": 0.0, "dma_vpu": 0.0}
        assert all(type(v) is float for v in busy.values())

    def test_steady_state_approaches_simulator_throughput(self):
        """A long independent workload must match the analytic model."""
        cfg, p = MorphlingConfig(), get_params("I")
        n_pbs = 64 * 40
        res = run_workload(cfg, p, [LayerDemand("big", n_pbs)])
        scheduled_thr = n_pbs / res.total_seconds
        analytic = simulate_bootstrap(cfg, p).throughput_bs
        assert scheduled_thr == pytest.approx(analytic, rel=0.10)

    def test_sequential_layers_slower_than_one_big_layer(self):
        cfg, p = MorphlingConfig(), get_params("I")
        one = run_workload(cfg, p, [LayerDemand("big", 256)])
        many = run_workload(cfg, p, [LayerDemand(f"l{i}", 64) for i in range(4)])
        assert many.total_seconds >= one.total_seconds

    def test_padding_waste_reported(self):
        cfg, p = MorphlingConfig(), get_params("I")
        res = run_workload(cfg, p, [LayerDemand("tiny", 3)])
        assert res.padding_waste > 0.5  # 3 of 16 slots in one wave

    def test_busy_times_below_total(self):
        cfg, p = MorphlingConfig(), get_params("I")
        res = run_workload(cfg, p, [LayerDemand("l", 128)])
        for busy in res.engine_busy_seconds.values():
            assert busy <= res.total_seconds + 1e-12

    def test_utilization_dict_keys(self):
        cfg, p = MorphlingConfig(), get_params("I")
        res = run_workload(cfg, p, [LayerDemand("l", 64)])
        assert set(res.utilization) == {"xpu", "vpu", "dma_xpu", "dma_vpu"}


class TestLayerDemand:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LayerDemand("bad", -1)
        with pytest.raises(ValueError):
            LayerDemand("bad", 1, linear_macs=-5)
