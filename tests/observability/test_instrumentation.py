"""End-to-end instrumentation tests: hot paths feed the global telemetry."""

import numpy as np
import pytest

from repro import observability as obs
from repro.core.accelerator import MorphlingConfig
from repro.core.scheduler import HwScheduler, LayerDemand, SwScheduler
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
        assert _counter("tfhe_external_products_total") > 0
        # real FFT work happened underneath
        assert _counter("transforms_fft_total", direction="forward") > 0
        names = [s.name for s in obs.TRACER.spans()]
        assert "programmable_bootstrap_batch" in names

    def test_gate_levels_are_count_weighted_by_batch(self, ctx):
        """A level of two gates, then one gate: three bootstraps in two
        requests.  Latency samples are count-weighted by the batch, so one
        request of each size gives count == batch in its series."""
        x, y = ctx.encrypt(1), ctx.encrypt(0)
        with obs.telemetry() as (registry, _tracer):
            level = ctx.gate_batch(["nand", "xor"], [x, x], [y, y])
            ctx.gate("and", *level)
            assert registry.get("tfhe_bootstraps_total").value() == 3
            latency = registry.get("tfhe_bootstrap_latency_seconds").snapshot()
        assert {s["labels"]["batch"]: s["count"]
                for s in latency["values"]} == {2: 2, 1: 1}


class TestSimulatorTelemetry:
    def test_one_group_reports_nonzero_core_counters(self):
        with obs.telemetry():
            report = simulate_bootstrap(MorphlingConfig(), get_params("I"))
        assert _counter("sim_bootstraps_total") == report.group_size
        assert _counter("sim_groups_total") == 1
        assert _counter("sim_transforms_total", direction="forward") > 0
        assert _counter("hbm_bytes_total", channel="xpu") > 0
        assert _counter("hbm_bytes_total", channel="vpu") > 0
        assert _counter("sim_bottleneck_total", resource=report.bottleneck) == 1
        tracks = {s.track for s in obs.TRACER.spans()}
        assert "sim/xpu_compute" in tracks

    def test_telemetry_off_means_no_series(self):
        simulate_bootstrap(MorphlingConfig(), get_params("I"))
        assert _counter("sim_bootstraps_total") == 0
        assert len(obs.TRACER.spans()) == 0


class TestSchedulerTelemetry:
    def test_workload_spans_and_instruction_counts(self):
        config, params = MorphlingConfig(), get_params("I")
        layers = [LayerDemand("l0", bootstraps=70, linear_macs=1000)]
        with obs.telemetry():
            stream = SwScheduler(config, params).schedule(layers)
            result = HwScheduler(config, params).execute(stream)
        assert _counter("sched_groups_formed_total") == 2  # 70 -> 64 + 6
        assert _counter("sched_instructions_total", op="blind_rotate") == 2
        assert _counter("sched_padded_slots_total") > 0
        spans = obs.TRACER.spans()
        assert len(spans) == len(stream)
        assert max(s.end_us for s in spans) == pytest.approx(
            result.total_seconds * 1e6
        )
