"""End-to-end instrumentation tests: the substrate's executed work feeds
the global telemetry, and the models publish nothing beside what they
return."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from repro import observability as obs
from repro.apps import xgboost_workload
from repro.core.accelerator import MorphlingConfig
from repro.core.scheduler import run_workload
from repro.core.simulator import simulate_bootstrap
from repro.params import get_params
from repro.tfhe import identity_test_polynomial, programmable_bootstrap
from repro.transforms.negacyclic import negacyclic_fft, negacyclic_ifft_folded

from ..tfhe._oracle import negacyclic_convolve_fft


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Each test observes only its own activity; leave telemetry off after."""
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _counter(name, **labels):
    metric = obs.REGISTRY.get(name)
    value = metric.value(**labels) if metric is not None else None
    return 0.0 if value is None else value


class TestTransformCounters:
    def test_fft_directions_and_batches(self):
        with obs.telemetry():
            negacyclic_fft(np.zeros((3, 16)))
            negacyclic_ifft_folded(np.zeros(8, dtype=np.complex128), 16)
        assert _counter("transforms_fft_total", direction="forward") == 3
        assert _counter("transforms_fft_total", direction="inverse") == 1

    def test_negacyclic_convolve_counts_both_directions(self):
        with obs.telemetry():
            negacyclic_convolve_fft(np.ones(16), np.ones(16))
        assert _counter("transforms_fft_total", direction="forward") == 2
        assert _counter("transforms_fft_total", direction="inverse") == 1

    def test_disabled_records_nothing(self):
        negacyclic_ifft_folded(negacyclic_fft(np.zeros(16)), 16)
        assert _counter("transforms_fft_total", direction="forward") == 0
        assert _counter("transforms_fft_total", direction="inverse") == 0


class TestFunctionalBootstrapTelemetry:
    def test_bootstrap_fires_counters_and_span(self, ctx):
        p = ctx.params
        tp = identity_test_polynomial(p, 8)
        ct = ctx.encrypt(2, 8)
        with obs.telemetry():
            programmable_bootstrap(ct, tp, ctx.keyset)
        assert _counter("tfhe_bootstraps_total") == 1
        assert 0 < _counter("tfhe_blind_rotation_steps_total") <= p.n
        assert _counter("tfhe_key_switches_total") == 1
        # real FFT work happened underneath
        assert _counter("transforms_fft_total", direction="forward") > 0
        names = [s.name for s in obs.TRACER.spans()]
        assert "programmable_bootstrap_batch" in names

    def test_gate_levels_are_count_weighted_by_batch(self, ctx):
        """A level of two gates, then one gate: three bootstraps in two
        requests.  The counter grows by each request's batch, and each
        request is one span carrying its batch."""
        x, y = ctx.encrypt(1), ctx.encrypt(0)
        with obs.telemetry() as (registry, tracer):
            level = ctx.gate_batch(["nand", "xor"], [x, x], [y, y])
            ctx.gate("and", *level)
            assert registry.get("tfhe_bootstraps_total").value() == 3
            spans = tracer.spans()
        assert [(s.name, s.args["batch"]) for s in spans] == [
            ("programmable_bootstrap_batch", 2), ("programmable_bootstrap_batch", 1)]


def _published():
    """Every registry series and tracer span recorded since the last reset."""
    series = {name: metric["values"]
              for name, metric in obs.REGISTRY.snapshot().items() if metric["values"]}
    return series, obs.TRACER.spans()


class TestSimulatorTelemetry:
    """The simulator, the schedulers and the HBM model return their
    numbers; with telemetry on they record no series and no span."""

    def test_simulate_bootstrap_publishes_nothing(self):
        config, params = MorphlingConfig.morphling(), get_params("I")
        quiet = simulate_bootstrap(config, params)
        with obs.telemetry():
            report = simulate_bootstrap(config, params)
            assert _published() == ({}, [])
        assert report == quiet

    def test_telemetry_off_means_no_series(self):
        simulate_bootstrap(MorphlingConfig(), get_params("I"))
        assert _published() == ({}, [])


class TestSchedulerTelemetry:
    def test_run_workload_publishes_nothing(self):
        config, params = MorphlingConfig.morphling(), get_params("III")
        layers = list(xgboost_workload().layers)
        quiet = run_workload(config, params, layers, verify=True)
        with obs.telemetry():
            result = run_workload(config, params, layers, verify=True)
            assert _published() == ({}, [])
        assert result == quiet

    @pytest.mark.parametrize("module", ["repro.core.simulator", "repro.core.scheduler",
                                        "repro.core.hbm"])
    def test_models_do_not_import_telemetry(self, module):
        tree = ast.parse(Path(importlib.import_module(module).__file__).read_text())
        imported = {node.module or "" for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)}
        imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                     for alias in node.names}
        assert not any("observability" in name for name in imported)
