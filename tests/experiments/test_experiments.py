"""Tests for the experiment drivers and the result container."""

import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    ExperimentResult,
    morphling_throughputs,
    run_all,
    run_fig3,
    run_fig6,
    run_fig8a,
    run_fig8b,
    run_table3,
    run_table5,
    run_table6,
)


class TestResultContainer:
    @pytest.fixture()
    def result(self):
        return ExperimentResult(
            "x", "demo", ["a", "b"], [[1, 2.5], [3, 40000.0]], notes=["n"]
        )

    def test_column_extraction(self, result):
        assert result.column("a") == [1, 3]

    def test_unknown_column(self, result):
        with pytest.raises(KeyError):
            result.column("zzz")

    def test_to_text_contains_everything(self, result):
        text = result.to_text()
        assert "demo" in text
        assert "note: n" in text
        assert "40,000" in text


class TestDrivers:
    """Each driver must return a well-formed, paper-shaped table."""

    def test_registry_is_complete(self):
        assert set(ALL_EXPERIMENTS) == {
            "table1", "table2", "fig1", "fig2", "fig3", "table3", "table4", "table5", "fig6",
            "fig7a", "fig7b", "fig8a", "fig8b", "table6",
            "ablation-dataflow", "ablation-rotator",
            "ablation-reuse-factors", "security-table", "efficiency-table",
        }

    @pytest.mark.parametrize("exp_id", sorted(set(ALL_EXPERIMENTS) - {"table6"}))
    def test_driver_runs(self, exp_id):
        result = ALL_EXPERIMENTS[exp_id]()
        assert result.experiment_id == exp_id
        assert result.rows
        assert all(len(row) == len(result.headers) for row in result.rows)

    def test_table5_has_morphling_and_references(self):
        result = run_table5()
        systems = set(result.column("system"))
        assert "Morphling (ours)" in systems
        assert {"Concrete", "MATCHA", "Strix"} <= systems

    def test_fig3_headline_row(self):
        result = run_fig3()
        by_name = dict(zip(result.column("parameters"), result.column("no-reuse")))
        assert by_name["(k,lb)=(3,3) [set C]"] == 46752

    def test_fig8a_knee(self):
        result = run_fig8a()
        thr = dict(zip(result.column("A1 (KB)"), result.column("throughput (BS/s)")))
        assert thr[512] < thr[2048] < thr[4096] == thr[8192] == thr[16384]
        assert list(thr.values()) == sorted(thr.values())

    def test_fig8b_degradation(self):
        result = run_fig8b()
        xpus = result.column("XPUs")
        thr = dict(zip(xpus, result.column("throughput (BS/s)")))
        assert thr[5] < thr[4]
        bottleneck = dict(zip(xpus, result.column("bottleneck")))
        assert {bottleneck[n] for n in (5, 6, 8)} == {"bsk_bandwidth"}
        per_xpu = dict(zip(xpus, result.column("per-XPU (BS/s)")))
        assert per_xpu[5] < 0.6 * per_xpu[4]

    def test_fig6_pipelines_groups_back_to_back(self):
        result = run_fig6()
        engines = set(result.column("engine"))
        assert {"xpu", "dma_xpu"} <= engines
        assert any(e.startswith("vpu") for e in engines)
        spans = {}  # operation -> [(start ms, end ms)]
        for _, op, _, start, end in result.rows:
            spans.setdefault(op, []).append((start, end))
        brs = sorted(spans["blind_rotate"])
        for (_, prev_end), (start, _) in zip(brs, brs[1:]):
            assert abs(start - prev_end) < 0.02
        # the first BSK prefetch lands before the first blind rotation
        assert min(end for _, end in spans["load_bsk"]) <= brs[0][0] + 1e-9

    def test_table3_lists_the_sets_in_paper_order(self):
        assert run_table3().column("set") == ["I", "II", "III", "IV", "A", "B", "C"]

    def test_morphling_throughputs_keys(self):
        thr = morphling_throughputs()
        assert set(thr) == {"I", "II", "III", "IV"}
        assert all(v > 10_000 for v in thr.values())


class TestTable6:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table6()

    def test_all_applications_present(self, result):
        apps = result.column("application")
        assert apps == ["XG-Boost", "DeepCNN-20", "DeepCNN-50", "DeepCNN-100", "VGG-9"]

    def test_speedups_in_paper_band(self, result):
        cpu = result.column("CPU (s)")
        morph = result.column("Morphling (s)")
        for c, m in zip(cpu, morph):
            assert 80 < c / m < 160

    def test_latency_shape(self, result):
        """Sub-second except DeepCNN-50/100, linear in trunk depth, and in
        the paper's order."""
        s = dict(zip(result.column("application"), result.column("Morphling (s)")))
        assert s["XG-Boost"] < 0.1
        assert s["VGG-9"] < 1.0
        per_layer = (s["DeepCNN-50"] - s["DeepCNN-20"]) / 30
        assert (s["DeepCNN-100"] - s["DeepCNN-50"]) / 50 == pytest.approx(per_layer, rel=0.15)
        assert s["XG-Boost"] < s["DeepCNN-20"] < s["DeepCNN-100"]


class TestRunner:
    def test_run_all_produces_every_result(self):
        results = run_all()
        assert [r.experiment_id for r in results] == list(ALL_EXPERIMENTS)
