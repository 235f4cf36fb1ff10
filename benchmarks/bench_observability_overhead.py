"""Benchmark guard: disabled telemetry must cost < 5% on gate bootstraps.

Every instrumented site guards itself with a single ``registry.enabled``
(or ``tracer.enabled``) read-and-branch, so with telemetry off the code
path is the uninstrumented one plus those checks.  This bench verifies
the guarantee two ways on a gate-bootstrap loop (the hottest functional
path: ``n`` CMux iterations, each several batched FFTs):

1. *Analytic bound*: count the enabled-checks one gate bootstrap actually
   performs (by swapping in probe registry/tracer classes whose
   ``enabled`` attribute is a counting property that still reports
   False), measure the per-check cost in a tight loop, and assert
   ``checks x cost_per_check < 5%`` of the measured bootstrap time.
2. *A/B sanity*: time the loop with telemetry disabled vs enabled and
   print both (informational - wall-clock A/B on equal code paths is too
   noisy to gate on, the analytic bound is the contract).

Run directly (``python benchmarks/bench_observability_overhead.py``) or
via pytest.
"""

import time
import tracemalloc

from repro import TEST_PARAMS, observability as obs
from repro.observability.noise import NoiseTracker
from repro.observability.registry import MetricsRegistry
from repro.observability.tracer import Tracer
from repro.tfhe import TfheContext

MAX_DISABLED_OVERHEAD = 0.05


class _ProbeRegistry(MetricsRegistry):
    """Registry whose ``enabled`` read is counted (and always False)."""

    checks = 0

    @property
    def enabled(self):
        _ProbeRegistry.checks += 1
        return False

    @enabled.setter
    def enabled(self, value):
        pass


class _ProbeTracer(Tracer):
    checks = 0

    @property
    def enabled(self):
        _ProbeTracer.checks += 1
        return False

    @enabled.setter
    def enabled(self, value):
        pass


class _ProbeNoise(NoiseTracker):
    """Noise tracker whose ``enabled`` read is counted (always False)."""

    checks = 0

    @property
    def enabled(self):
        _ProbeNoise.checks += 1
        return False

    @enabled.setter
    def enabled(self, value):
        pass


def _count_enabled_checks(run_once) -> int:
    """How many telemetry enabled-checks one gate bootstrap performs."""
    _ProbeRegistry.checks = _ProbeTracer.checks = _ProbeNoise.checks = 0
    obs.REGISTRY.__class__ = _ProbeRegistry
    obs.TRACER.__class__ = _ProbeTracer
    obs.NOISE.__class__ = _ProbeNoise
    try:
        run_once()
        return _ProbeRegistry.checks + _ProbeTracer.checks + _ProbeNoise.checks
    finally:
        obs.REGISTRY.__class__ = MetricsRegistry
        obs.TRACER.__class__ = Tracer
        obs.NOISE.__class__ = NoiseTracker
        obs.REGISTRY.enabled = False
        obs.TRACER.enabled = False
        obs.NOISE.enabled = False


def _per_check_seconds(iterations: int = 200_000) -> float:
    """Cost of one disabled-counter update (the whole disabled hot path)."""
    reg = MetricsRegistry(enabled=False)
    counter = reg.counter("probe_total")
    start = time.perf_counter()
    for _ in range(iterations):
        counter.inc()
    return (time.perf_counter() - start) / iterations


def _time_loop(run_once, repeats: int = 3, loops: int = 4) -> float:
    """Best-of-``repeats`` seconds per call for a ``loops``-long run."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            run_once()
        best = min(best, (time.perf_counter() - start) / loops)
    return best


def test_disabled_instrumentation_overhead_under_5_percent():
    ctx = TfheContext.create(TEST_PARAMS, seed=11)
    a, b = ctx.encrypt(1), ctx.encrypt(0)

    def one_gate_bootstrap():
        ctx.gate("nand", a, b)

    obs.disable()
    checks = _count_enabled_checks(one_gate_bootstrap)
    per_check = _per_check_seconds()
    disabled = _time_loop(one_gate_bootstrap)

    overhead = checks * per_check
    fraction = overhead / disabled
    obs.enable()
    try:
        enabled = _time_loop(one_gate_bootstrap)
    finally:
        obs.disable()
        obs.reset()

    print(
        f"\n  gate bootstrap: {disabled * 1e3:.2f} ms telemetry-off, "
        f"{enabled * 1e3:.2f} ms telemetry-on\n"
        f"  enabled-checks/bootstrap: {checks}, "
        f"{per_check * 1e9:.0f} ns/check -> "
        f"{fraction:.3%} of the disabled run (limit {MAX_DISABLED_OVERHEAD:.0%})"
    )
    assert checks > 0, "instrumentation sites vanished - nothing was measured"
    assert fraction < MAX_DISABLED_OVERHEAD


def test_disabled_noise_tracker_allocates_nothing_on_gate_path():
    """With tracking off the tfhe gate path must not touch the tracker.

    Same contract as the registry and tracer: ``tracemalloc`` filtered to
    the noise module proves a full gate bootstrap (encrypt -> linear ops
    -> bootstrap -> decode) allocates *zero* objects there while disabled.
    """
    ctx = TfheContext.create(TEST_PARAMS, seed=11)
    x, y = ctx.encrypt(1), ctx.encrypt(0)
    ctx.decrypt(ctx.gate("nand", x, y))  # warm caches outside the trace
    obs.disable()
    tracemalloc.start()
    try:
        ctx.decrypt(ctx.gate("nand", ctx.encrypt(1), ctx.encrypt(0)))
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    stats = snapshot.filter_traces(
        [tracemalloc.Filter(True, "*observability/noise.py")]
    ).statistics("filename")
    blocks = sum(stat.count for stat in stats)
    assert blocks == 0, (
        f"disabled noise tracker allocated {blocks} blocks: {stats}"
    )


def test_disabled_registry_and_tracer_allocate_nothing_on_hot_paths():
    """With telemetry off, no hot path may allocate in the registry or
    tracer modules.

    Every metric update and span is guarded by one ``enabled`` read, so
    a disabled gate bootstrap, simulator run and scheduled workload must
    leave *zero* objects behind in ``registry.py`` and ``tracer.py``.
    """
    from repro.apps import xgboost_workload
    from repro.core.accelerator import MorphlingConfig
    from repro.core.scheduler import run_workload
    from repro.core.simulator import simulate_bootstrap
    from repro.params import get_params

    ctx = TfheContext.create(TEST_PARAMS, seed=11)
    config, params = MorphlingConfig(), get_params("I")
    layers = list(xgboost_workload().layers)

    def run_all():
        ctx.decrypt(ctx.gate("nand", ctx.encrypt(1), ctx.encrypt(0)))
        simulate_bootstrap(config, params)
        run_workload(config, params, layers)

    run_all()  # warm caches outside the trace
    obs.disable()
    tracemalloc.start()
    try:
        run_all()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    stats = snapshot.filter_traces([
        tracemalloc.Filter(True, "*observability/registry.py"),
        tracemalloc.Filter(True, "*observability/tracer.py"),
    ]).statistics("filename")
    blocks = sum(stat.count for stat in stats)
    assert blocks == 0, (
        f"disabled registry/tracer allocated {blocks} blocks: {stats}"
    )


if __name__ == "__main__":
    test_disabled_instrumentation_overhead_under_5_percent()
    test_disabled_noise_tracker_allocates_nothing_on_gate_path()
    test_disabled_registry_and_tracer_allocate_nothing_on_hot_paths()
    print("overhead guard: OK")
