"""Tests for the ISA and the SW/HW co-scheduler."""

import pytest

from repro.core.accelerator import MorphlingConfig
from repro.core.isa import DmaOp, Engine, Instruction, InstructionStream, VpuOp, XpuOp
from repro.core.scheduler import HwScheduler, LayerDemand, SwScheduler, run_workload
from repro.core.simulator import simulate_bootstrap
from repro.params import get_params


class TestInstruction:
    def test_engine_dispatch(self):
        assert Instruction(0, XpuOp.BLIND_ROTATE, 0).engine is Engine.XPU
        assert Instruction(0, VpuOp.KEY_SWITCH, 0).engine is Engine.VPU
        assert Instruction(0, DmaOp.LOAD_BSK, 0).engine is Engine.DMA

    def test_rejects_negative_sizes(self):
        with pytest.raises(ValueError):
            Instruction(0, VpuOp.P_ALU, 0, macs=-1)

    def test_rejects_unknown_opcode(self):
        with pytest.raises(ValueError):
            Instruction(0, "not-an-op", 0)

    def test_every_opcode_carries_its_engine(self):
        assert {op.engine for op in XpuOp} == {Engine.XPU}
        assert {op.engine for op in VpuOp} == {Engine.VPU}
        assert {op.engine for op in DmaOp} == {Engine.DMA}

    def test_instances_are_slotted_values(self):
        # No per-instance __dict__: a Table VI stream is tens of
        # thousands of these.
        inst = Instruction(3, VpuOp.KEY_SWITCH, 1, count=2, depends_on=(1, 2))
        assert not hasattr(inst, "__dict__")
        twin = Instruction(3, VpuOp.KEY_SWITCH, 1, count=2, depends_on=(1, 2))
        assert inst == twin and hash(inst) == hash(twin)
        assert inst != Instruction(4, VpuOp.KEY_SWITCH, 1, count=2, depends_on=(1, 2))
        assert "KEY_SWITCH" in repr(inst)


class TestInstructionStream:
    def test_emit_assigns_sequential_ids(self):
        s = InstructionStream()
        a = s.emit(DmaOp.LOAD_LWE, 0)
        b = s.emit(VpuOp.MODULUS_SWITCH, 0, depends_on=(a.inst_id,))
        assert b.inst_id == a.inst_id + 1

    def test_forward_dependency_rejected(self):
        s = InstructionStream()
        with pytest.raises(ValueError):
            s.emit(VpuOp.MODULUS_SWITCH, 0, depends_on=(99,))

    def test_records_are_views_of_the_columns(self):
        s = InstructionStream()
        load = s.emit(DmaOp.LOAD_LWE, 0, count=2, data_bytes=64)
        s.emit_block([XpuOp.BLIND_ROTATE.code, VpuOp.P_ALU.code], [0, 1],
                     [2, 0], [0, 0], [0, 9], [1, 2], [0, 0, 1])
        cols = s.columns()
        assert cols.code.tolist() == [DmaOp.LOAD_LWE.code,
                                      XpuOp.BLIND_ROTATE.code, VpuOp.P_ALU.code]
        assert cols.deps.tolist() == [0, 0, 1]
        assert cols.dep_ptr.tolist() == [0, 0, 1, 3]
        assert list(s) == [
            load,
            Instruction(1, XpuOp.BLIND_ROTATE, 0, count=2, depends_on=(0,)),
            Instruction(2, VpuOp.P_ALU, 1, macs=9, depends_on=(0, 1)),
        ]
        assert len(s) == 3 and s.groups() == [0, 1]

    def test_block_rows_are_checked_like_emitted_ones(self):
        s = InstructionStream()
        s.emit(DmaOp.LOAD_LWE, 0)
        with pytest.raises(ValueError, match="not yet emitted"):
            s.emit_block([VpuOp.MODULUS_SWITCH.code] * 2, [0, 0], [1, 1],
                         [0, 0], [0, 0], [1, 1], [0, 2])
        with pytest.raises(ValueError, match="unknown opcode"):
            s.emit_block([-1], [0], [0], [0], [0], [0], [])
        with pytest.raises(ValueError, match="non-negative"):
            s.emit_block([VpuOp.P_ALU.code], [0], [0], [0], [-5], [0], [])
        assert len(s) == 1  # nothing was appended by the refused blocks

    def test_queues_keep_their_names(self):
        s = InstructionStream()
        for op, group in ((XpuOp.BLIND_ROTATE, 0), (DmaOp.LOAD_BSK, 0),
                          (DmaOp.LOAD_LWE, 0), (VpuOp.KEY_SWITCH, 5)):
            s.emit(op, group)
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
        stream = sched.schedule([LayerDemand("l", 64)])
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
        stream = sched.schedule([LayerDemand("l", 200)])
        brs = [i for i in stream if i.op is XpuOp.BLIND_ROTATE]
        assert len(brs) == 4  # ceil(200/64)
        assert sum(i.count for i in brs) == 200

    def test_layer_barrier_enforced(self, sched):
        stream = sched.schedule([LayerDemand("a", 10), LayerDemand("b", 10)])
        stores = [i for i in stream if i.op is DmaOp.STORE_LWE]
        second_layer_loads = [
            i for i in stream
            if i.op is DmaOp.LOAD_LWE and i.group == 1
        ]
        assert second_layer_loads
        assert stores[0].inst_id in second_layer_loads[0].depends_on

    def test_linear_macs_emit_palu(self, sched):
        stream = sched.schedule([LayerDemand("l", 10, linear_macs=1000)])
        palu = [i for i in stream if i.op is VpuOp.P_ALU]
        assert len(palu) == 1
        assert palu[0].macs == 1000

    def test_stream_validates(self, sched):
        stream = sched.schedule([LayerDemand("l", 100), LayerDemand("m", 50)])
        stream.validate_dependencies()  # must not raise

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
