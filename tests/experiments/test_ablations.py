"""Tests for the ablation experiment drivers."""

import pytest

from repro.core.accelerator import MorphlingConfig
from repro.core.dataflow import Dataflow, dataflow_cost, rank_dataflows
from repro.core.simulator import simulate_bootstrap
from repro.experiments import (
    run_ablation_dataflow,
    run_ablation_reuse_factors,
    run_ablation_rotator,
    run_security_table,
)
from repro.params import get_params


class TestDataflowAblation:
    def test_output_stationary_cheapest(self):
        result = run_ablation_dataflow()
        costs = dict(zip(result.column("dataflow"), result.column("A1 KB/ciphertext")))
        assert costs["acc-output-stationary"] == min(costs.values())

    def test_bsk_stationary_streams_most(self):
        result = run_ablation_dataflow()
        ext = dict(zip(result.column("dataflow"),
                       result.column("external KB/iteration")))
        assert ext["bsk-stationary"] == max(ext.values())

    @pytest.mark.parametrize("pset", ["I", "II", "III", "IV", "A", "B", "C"])
    def test_paper_choice_ranks_first(self, pset):
        ranking = rank_dataflows(MorphlingConfig(), get_params(pset))
        assert ranking[0].dataflow is Dataflow.OUTPUT_STATIONARY

    def test_output_stationary_dominates_the_alternatives(self):
        """Section IV-B: the alternatives at least double the Private-A1
        footprint, and BSK-stationary adds ciphertext streaming."""
        cfg, p = MorphlingConfig(), get_params("I")
        out = dataflow_cost(Dataflow.OUTPUT_STATIONARY, cfg, p)
        inp = dataflow_cost(Dataflow.INPUT_STATIONARY, cfg, p)
        bsk = dataflow_cost(Dataflow.BSK_STATIONARY, cfg, p)
        assert out.dominates(inp)
        assert inp.a1_bytes_per_ciphertext >= 2 * out.a1_bytes_per_ciphertext
        assert bsk.external_bytes_per_iteration > out.external_bytes_per_iteration


class TestRotatorAblation:
    def test_double_pointer_always_wins(self):
        result = run_ablation_rotator()
        for advantage in result.column("advantage"):
            assert float(advantage.rstrip("x")) > 1.0

    def test_shifter_stalls_cost_over_ten_percent_on_set_i(self):
        p = get_params("I")
        dp = simulate_bootstrap(MorphlingConfig(rotator="double_pointer"), p)
        sh = simulate_bootstrap(MorphlingConfig(rotator="shifter"), p)
        assert dp.throughput_bs > 1.10 * sh.throughput_bs
        assert dp.bootstrap_latency_s < sh.bootstrap_latency_s

    def test_covers_comparison_sets(self):
        assert run_ablation_rotator().column("set") == ["I", "II", "III", "IV"]


class TestReuseFactorAblation:
    def test_64x_is_the_crossover(self):
        result = run_ablation_reuse_factors()
        regimes = dict(zip(result.column("BSK reuse"), result.column("regime")))
        assert regimes[16] == "memory-bound"
        assert regimes[64] == "compute-bound"

    def test_rate_scales_with_reuse(self):
        result = run_ablation_reuse_factors()
        rates = result.column("memory rate (BS/s)")
        assert rates == sorted(rates)


class TestSecurityTable:
    @pytest.fixture(scope="class")
    def result(self):
        return run_security_table()

    def test_all_sets_present(self, result):
        assert sorted(result.column("set")) == ["A", "B", "C", "I", "II", "III", "IV"]

    def test_large_n_sets_meet_claims(self, result):
        verdicts = dict(zip(result.column("set"), result.column("meets claim")))
        for name in ("I", "II", "IV", "A"):
            assert verdicts[name] == "yes", name

    def test_32bit_port_flagged(self, result):
        verdicts = dict(zip(result.column("set"), result.column("meets claim")))
        for name in ("III", "B", "C"):
            assert "no" in verdicts[name], name
