"""Every shipped configuration compiles verifier-clean, and the
verify-on-compile / verify-on-run integration points behave."""

import pytest

from repro.core.compiler import compile_program
from repro.core.accelerator import MorphlingConfig
from repro.core.scheduler import HwScheduler, LayerDemand, SwScheduler, run_workload
from repro.core.simulator import MorphlingSimulator
from repro.params import get_params
from repro.verify import VerificationError
from repro.verify.cli import shipped_targets, verify_target


@pytest.mark.parametrize("target", shipped_targets(), ids=lambda t: t.name)
def test_shipped_target_is_verifier_clean(target):
    report = verify_target(target)
    assert report.ok, report.render()


def test_shipped_targets_cover_paper_surfaces():
    names = {t.name for t in shipped_targets()}
    # All five Table VI applications, both ablation variants, all Table III sets.
    assert {"xgboost@III", "vgg9@III", "deepcnn-20@III", "deepcnn-50@III",
            "deepcnn-100@III"} <= names
    assert {"xgboost@no-reuse", "xgboost@input-reuse"} <= names
    assert {"xgboost@I", "xgboost@II", "xgboost@IV"} <= names


class TestVerifyOnCompile:
    def test_compile_program_verifies_by_default(self):
        config = MorphlingConfig.morphling()
        params = get_params("III")
        layers = [LayerDemand("l0", 64), LayerDemand("l1", 32, linear_macs=4096)]
        name, stream, binary = compile_program(layers, config, params)
        assert len(stream) > 0 and len(binary) > 0

    def test_scheduler_output_is_clean_for_every_param_set(self):
        config = MorphlingConfig.morphling()
        for param_set in ("I", "II", "III", "IV", "A", "B", "C"):
            params = get_params(param_set)
            compile_program([LayerDemand("l", 8)], config, params)

    def test_hw_scheduler_verify_flag(self):
        config = MorphlingConfig.morphling()
        params = get_params("III")
        stream = SwScheduler(config, params).schedule([LayerDemand("l", 16)])
        result = HwScheduler(config, params).execute(stream, verify=True)
        assert result.total_seconds > 0

    def test_run_workload_verifies_by_default(self):
        config = MorphlingConfig.morphling()
        params = get_params("III")
        result = run_workload(config, params, [LayerDemand("l", 16)])
        assert result.total_seconds > 0

    def test_hand_rolled_bad_stream_raises(self):
        """A stream bypassing SwScheduler's invariants is rejected."""
        from repro.core.isa import InstructionStream, VpuOp, XpuOp

        config = MorphlingConfig.morphling()
        params = get_params("III")
        stream = InstructionStream()
        # BR with no MS feeding it: VER005 RAW hazard.
        stream.emit_block([XpuOp.BLIND_ROTATE.code, VpuOp.SAMPLE_EXTRACT.code],
                          [0, 0], [1, 1], [0, 0], [0, 0], [0, 0], [])
        with pytest.raises(VerificationError):
            HwScheduler(config, params).execute(stream, verify=True)


class TestSimulatorVerify:
    def test_canonical_group_program_is_clean(self):
        sim = MorphlingSimulator(MorphlingConfig.morphling(), get_params("III"))
        report = sim.verify()
        assert report.ok, report.render()
        assert report.subject == "morphling@III"

    def test_run_with_verify_matches_plain_run(self):
        sim = MorphlingSimulator(MorphlingConfig.morphling(), get_params("I"))
        verified = sim.run(verify=True)
        plain = sim.run()
        assert verified.throughput_bs == plain.throughput_bs

    def test_ablation_variants_verify(self):
        for make in (MorphlingConfig.no_reuse, MorphlingConfig.input_reuse):
            sim = MorphlingSimulator(make(), get_params("III"))
            assert sim.verify().ok
