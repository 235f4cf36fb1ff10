"""Tests for the CPU cost model, reference records, and accelerator variants."""

import pytest

from repro.baselines import (
    CpuCostModel,
    TABLE_V_MORPHLING_PAPER,
    TABLE_V_REFERENCES,
    equal_resource_variants,
    references_for,
    speedup_range,
)
from repro.core.accelerator import MorphlingConfig
from repro.core.reuse import ReuseType
from repro.core.simulator import simulate_bootstrap
from repro.params import FIG1_PARAMS, get_params


class TestCpuModel:
    """Calibration regression: Concrete's Table V rows within 8 %."""

    PAPER = {"I": 15.65, "II": 27.26, "III": 82.19}

    @pytest.fixture(scope="class")
    def cpu(self):
        return CpuCostModel()

    @pytest.mark.parametrize("pset", sorted(PAPER))
    def test_bootstrap_latency(self, cpu, pset):
        got_ms = cpu.bootstrap_seconds(get_params(pset)) * 1e3
        assert got_ms == pytest.approx(self.PAPER[pset], rel=0.08)

    def test_throughput_is_reciprocal(self, cpu):
        p = get_params("I")
        assert cpu.throughput_bs(p) == pytest.approx(1 / cpu.bootstrap_seconds(p))

    def test_fig1_stage_breakdown(self, cpu):
        """Paper Fig. 1: BR 37.7 ms, KS 6.4 ms on the CPU."""
        t = cpu.bootstrap_time(FIG1_PARAMS)
        assert t.blind_rotation_s * 1e3 == pytest.approx(37.7, rel=0.12)
        assert t.key_switch_s * 1e3 == pytest.approx(6.4, rel=0.10)
        assert t.other_s < 0.1 * t.blind_rotation_s
        assert t.key_switch_s > 50 * t.other_s

    def test_workload_uses_all_cores(self, cpu):
        p = get_params("I")
        single = cpu.bootstrap_seconds(p) * 1000
        parallel = cpu.workload_seconds(p, 1000)
        assert parallel == pytest.approx(single / cpu.effective_parallel_cores())

    def test_workload_rejects_negative(self, cpu):
        with pytest.raises(ValueError):
            cpu.workload_seconds(get_params("I"), -1)

    def test_invalid_calibration_rejected(self):
        with pytest.raises(ValueError):
            CpuCostModel(fft_ns_per_unit=0)
        with pytest.raises(ValueError):
            CpuCostModel(parallel_efficiency=0)


class TestReferences:
    def test_all_expected_systems_present(self):
        systems = {r.system for r in TABLE_V_REFERENCES}
        assert systems == {"Concrete", "NuFHE", "cuda TFHE", "XHEC", "MATCHA", "Strix"}

    def test_references_for_unknown(self):
        with pytest.raises(KeyError):
            references_for("GPU9000")

    def test_strix_rows(self):
        rows = references_for("Strix")
        assert {r.param_set for r in rows} == {"I", "II", "III"}
        assert all(r.reuse_class == "input-reuse" for r in rows)

    def test_paper_morphling_rows_complete(self):
        assert set(TABLE_V_MORPHLING_PAPER) == {"I", "II", "III", "IV"}


class TestSpeedups:
    """The paper's headline factors, from our simulated throughput."""

    @pytest.fixture(scope="class")
    def morphling(self):
        return {
            s: simulate_bootstrap(MorphlingConfig(), get_params(s)).throughput_bs
            for s in ["I", "II", "III", "IV"]
        }

    def test_cpu_speedup_range(self, morphling):
        lo, hi = speedup_range(morphling, "Concrete")
        assert lo == pytest.approx(2145, rel=0.10)
        assert hi == pytest.approx(3439, rel=0.10)

    def test_gpu_speedup_range(self, morphling):
        lo, hi = speedup_range(morphling, "NuFHE")
        assert lo == pytest.approx(60, rel=0.10)
        assert hi == pytest.approx(144, rel=0.10)

    def test_sota_accelerator_speedup(self, morphling):
        _, hi = speedup_range(morphling, "MATCHA")
        assert hi == pytest.approx(14.76, rel=0.10)
        lo, _ = speedup_range(morphling, "Strix")
        assert lo == pytest.approx(1.98, rel=0.10)

    def test_fpga_speedup_range(self, morphling):
        lo, hi = speedup_range(morphling, "XHEC")
        assert lo == pytest.approx(28, rel=0.12)
        assert hi == pytest.approx(37, rel=0.12)

    def test_no_overlap_rejected(self, morphling):
        with pytest.raises(ValueError):
            speedup_range({"IX": 1.0}, "Strix")


def _ladder(pset):
    """XPU-pipeline throughput of each equal-resource variant, in ladder order."""
    thr = {}
    for name, cfg in equal_resource_variants().items():
        r = simulate_bootstrap(cfg, get_params(pset))
        thr[name] = r.group_size / r.xpu_busy_s
    return thr


class TestAcceleratorVariants:
    def test_reuse_classes(self):
        assert MorphlingConfig.no_reuse().reuse is ReuseType.NO_REUSE
        assert MorphlingConfig.input_reuse().reuse is ReuseType.INPUT_REUSE

    def test_equal_resource_ladder_ordered(self):
        variants = equal_resource_variants()
        assert list(variants) == [
            "no-reuse", "input-reuse", "input+output-reuse",
            "input+output-reuse+ms-fft",
        ]

    @pytest.mark.parametrize("pset", ["A", "B", "C"])
    def test_ladder_throughput_monotone(self, pset):
        """Each added technique must not slow the compute pipeline down."""
        thr = list(_ladder(pset).values())
        assert thr == sorted(thr)

    @pytest.mark.parametrize("pset,paper", [("A", 2.0), ("B", 2.9), ("C", 3.9)])
    def test_input_output_reuse_speedup_grows_with_k_lb(self, pset, paper):
        """Fig. 7-b under equal resources; merge-split FFT adds more on top."""
        thr = _ladder(pset)
        assert thr["input+output-reuse"] / thr["no-reuse"] == pytest.approx(paper, rel=0.10)
        assert thr["input+output-reuse+ms-fft"] > 1.15 * thr["input+output-reuse"]
