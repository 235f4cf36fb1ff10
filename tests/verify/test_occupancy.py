"""VER007 / OccupancyModel: aggregate liveness proofs over the timeline.

The headline case is a stream VER004 waves through - every instruction's
batch fits the group capacity - that still overflows the Shared buffer
because three blind-rotation results are live at once (their
sample-extracts all gated on the last rotation).  Only the interval
analysis sees that.
"""

import pytest

from repro.core.accelerator import MorphlingConfig
from repro.core.isa import DmaOp, Instruction, VpuOp, XpuOp
from repro.core.scheduler import LayerDemand, SwScheduler
from repro.params import get_params
from repro.verify import OccupancyModel, verify_stream


@pytest.fixture(scope="module")
def config():
    return MorphlingConfig.morphling()


@pytest.fixture(scope="module")
def params():
    return get_params("III")


@pytest.fixture(scope="module")
def model(config, params):
    return OccupancyModel(config, params)


def _hoarding_stream(params, groups=3, count=32):
    """``groups`` bootstrap chains whose SEs all wait on the *last* BR.

    Each extra dependency is legal (VER005 only requires the SE to carry
    its own group's RAW edge), but it keeps every rotation result parked
    in Shared until the final rotation lands.
    """
    stream = []

    def emit(op, group, **kw):
        inst = Instruction(len(stream), op, group, **kw)
        stream.append(inst)
        return inst.inst_id

    br, ksk = {}, {}
    lwe = count * params.lwe_bytes
    for g in range(groups):
        load = emit(DmaOp.LOAD_LWE, g, count=count, data_bytes=lwe)
        bsk = emit(DmaOp.LOAD_BSK, g, data_bytes=params.bsk_transform_bytes)
        ksk[g] = emit(DmaOp.LOAD_KSK, g, data_bytes=params.ksk_bytes)
        ms = emit(VpuOp.MODULUS_SWITCH, g, count=count, depends_on=(load,))
        br[g] = emit(XpuOp.BLIND_ROTATE, g, count=count, depends_on=(ms, bsk))
    last = br[groups - 1]
    for g in range(groups):
        deps = (br[g],) if br[g] == last else (br[g], last)
        se = emit(VpuOp.SAMPLE_EXTRACT, g, count=count, depends_on=deps)
        ks = emit(VpuOp.KEY_SWITCH, g, count=count, depends_on=(se, ksk[g]))
        emit(DmaOp.STORE_LWE, g, count=count, data_bytes=lwe, depends_on=(ks,))
    return stream


class TestVer007CatchesWhatVer004Misses:
    def test_hoarding_stream_passes_ver004(self, config, params):
        stream = _hoarding_stream(params)
        assert verify_stream(stream, config=config, params=params,
                             passes=["VER004"]).ok

    def test_hoarding_stream_passes_everything_but_ver007(self, config, params):
        stream = _hoarding_stream(params)
        report = verify_stream(stream, config=config, params=params)
        assert not report.ok
        assert {d.code for d in report.errors} == {"VER007"}

    def test_overflow_names_the_buffer_and_step(self, config, params):
        stream = _hoarding_stream(params)
        report = verify_stream(stream, config=config, params=params,
                               passes=["VER007"])
        assert not report.ok
        assert "shared" in report.errors[0].message
        assert "aggregate" in report.errors[0].message
        assert report.errors[0].instruction_index is not None

    def test_two_live_groups_still_fit(self, config, params):
        # The double-buffered Shared capacity provisions exactly two
        # resident results; the third is what breaks it.
        stream = _hoarding_stream(params, groups=2)
        assert verify_stream(stream, config=config, params=params,
                             passes=["VER007"]).ok


class TestScheduledTargetsStayClean:
    def test_compiled_workload_proof_fits(self, config, params, model):
        stream = SwScheduler(config, params).schedule(
            [LayerDemand(f"l{i}", bootstraps=96, linear_macs=256)
             for i in range(3)]
        )
        proof = model.analyze(list(stream), subject="layers")
        assert proof.ok
        # SEs keep pace with BRs: only one result resident at the peak.
        shared = proof.high_water("shared")
        assert shared.high_water_bytes <= 2 * 32 * params.glwe_bytes

    def test_full_pipeline_passes_with_ver007(self, config, params):
        stream = SwScheduler(config, params).schedule(
            [LayerDemand("l0", bootstraps=64, linear_macs=128)]
        )
        assert verify_stream(stream, config=config, params=params).ok


class TestProofContents:
    def test_unconsumed_rotation_leaks_to_program_end(self, params, model):
        # Two rotations, only the second drained: the first result has
        # no consumer and must stay live, so both peaks stack.
        stream = [
            Instruction(0, XpuOp.BLIND_ROTATE, 0, count=8),
            Instruction(1, XpuOp.BLIND_ROTATE, 1, count=8),
            Instruction(2, VpuOp.SAMPLE_EXTRACT, 1, count=8, depends_on=(1,)),
        ]
        proof = model.analyze(stream, subject="leak")
        assert proof.high_water("shared").high_water_bytes == \
            2 * 8 * params.glwe_bytes

    def test_high_water_points_at_producer(self, params, model):
        stream = _hoarding_stream(params)
        proof = model.analyze(stream, subject="hoard")
        shared = proof.high_water("shared")
        assert not shared.ok
        assert stream[shared.at_instruction].op is XpuOp.BLIND_ROTATE
        assert shared.high_water_bytes == 3 * 32 * params.glwe_bytes
        assert shared.utilization == pytest.approx(1.5)

    def test_jsonable_and_text_render(self, params, model):
        proof = model.analyze(_hoarding_stream(params), subject="hoard")
        doc = proof.to_jsonable()
        assert doc["subject"] == "hoard"
        assert doc["ok"] is False
        assert [b["buffer"] for b in doc["buffers"]] == [
            "shared", "private_a1", "private_a2"]
        assert "OVERFLOW" in proof.render_text()

    def test_empty_stream_is_trivially_ok(self, model):
        proof = model.analyze([], subject="empty")
        assert proof.ok
        assert proof.steps == 0
        assert all(b.high_water_bytes == 0 for b in proof.buffers)

    def test_skipped_without_architectural_context(self, params):
        stream = _hoarding_stream(params)
        assert verify_stream(stream, passes=["VER007"]).ok


class TestAdmissionControl:
    def test_admitted_batch_compiles_to_a_clean_proof(self, config, params):
        # One layer of exactly one full group - 32 ciphertexts on set III
        # (2 resident streams x 16 cores, the capacity VER004 enforces) -
        # stays within every buffer: Shared double-buffers its result.
        group = SwScheduler(config, params).group_size
        assert group == 32
        stream = SwScheduler(config, params).schedule(
            [LayerDemand("serve", bootstraps=group, linear_macs=64)]
        )
        assert verify_stream(stream, config=config, params=params,
                             passes=["VER007"]).ok

