"""Cross-cutting property-based invariants over the whole stack.

Hypothesis-driven laws that tie modules together: homomorphism laws of
the ciphertext algebra, monotonicity laws of the performance models, and
conservation laws of the scheduler - the invariants DESIGN.md commits to.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accelerator import MorphlingConfig
from repro.core.reuse import ReuseType, transforms_per_external_product
from repro.core.scheduler import LayerDemand, run_workload
from repro.core.simulator import simulate_bootstrap
from repro.core.xpu import XpuModel
from repro.params import get_params
from repro.tfhe.lwe import lwe_add, lwe_decrypt_phase, lwe_scalar_mul, lwe_sub
from repro.tfhe.torus import decode_message

P = 16
SETS = ["I", "II", "III", "IV", "A", "B", "C"]


class TestCiphertextAlgebra:
    """LWE is a Z-module homomorphism into the noisy torus."""

    @given(st.integers(0, P - 1), st.integers(0, P - 1), st.integers(0, P - 1))
    @settings(max_examples=15, deadline=None)
    def test_linearity(self, ctx, a, b, c):
        ca, cb, cc = (ctx.encrypt(x % (P // 2), P) for x in (a, b, c))
        lhs = lwe_add(lwe_sub(ca, cb), cc)
        phase = lwe_decrypt_phase(lhs, ctx.keyset.lwe_key)
        got = int(decode_message(np.asarray(phase), P)[()])
        assert got == (a % (P // 2) - b % (P // 2) + c % (P // 2)) % P

    @given(st.integers(-7, 7), st.integers(0, P // 2 - 1))
    @settings(max_examples=15, deadline=None)
    def test_scalar_distributes(self, ctx, s, m):
        ct = ctx.encrypt(m, P)
        direct = lwe_scalar_mul(s, ct)
        phase = lwe_decrypt_phase(direct, ctx.keyset.lwe_key)
        got = int(decode_message(np.asarray(phase), P)[()])
        assert got == (s * m) % P


class TestReuseAlgebra:
    @given(st.integers(1, 4), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_input_reuse_saves_exactly_the_row_factor(self, k, l_b):
        """Input reuse divides forward transforms by exactly (k+1)."""
        no = transforms_per_external_product(k, l_b, ReuseType.NO_REUSE)
        inp = transforms_per_external_product(k, l_b, ReuseType.INPUT_REUSE)
        assert no.forward == (k + 1) * inp.forward

    @given(st.integers(1, 4), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_output_reuse_saves_exactly_the_depth_factor(self, k, l_b):
        """Output reuse divides inverse transforms by exactly (k+1)*l_b."""
        inp = transforms_per_external_product(k, l_b, ReuseType.INPUT_REUSE)
        both = transforms_per_external_product(k, l_b, ReuseType.INPUT_OUTPUT_REUSE)
        assert inp.inverse == (k + 1) * l_b * both.inverse


class TestPerformanceMonotonicity:
    """More resources must never make the model slower."""

    @pytest.mark.parametrize("pset", SETS)
    def test_more_fft_units(self, pset):
        p = get_params(pset)
        base = XpuModel(MorphlingConfig(), p).iteration_cycles()
        more = XpuModel(MorphlingConfig(fft_units_per_xpu=4), p).iteration_cycles()
        assert more <= base

    @pytest.mark.parametrize("pset", SETS)
    def test_more_bandwidth(self, pset):
        p = get_params(pset)
        base = simulate_bootstrap(MorphlingConfig(), p).throughput_bs
        fat = simulate_bootstrap(
            MorphlingConfig(hbm_bandwidth_gbs=620.0), p
        ).throughput_bs
        assert fat >= base - 1e-9

    @pytest.mark.parametrize("pset", SETS)
    def test_bigger_a1(self, pset):
        p = get_params(pset)
        small = simulate_bootstrap(
            MorphlingConfig(private_a1_bytes=1 << 20), p
        ).throughput_bs
        big = simulate_bootstrap(
            MorphlingConfig(private_a1_bytes=1 << 24), p
        ).throughput_bs
        assert big >= small - 1e-9

    @pytest.mark.parametrize("pset", SETS)
    def test_reuse_never_hurts_compute(self, pset):
        p = get_params(pset)
        ladder = [
            XpuModel(MorphlingConfig.no_reuse(), p).iteration_cycles(),
            XpuModel(MorphlingConfig.input_reuse(), p).iteration_cycles(),
            XpuModel(MorphlingConfig(merge_split=False, name="io"), p).iteration_cycles(),
        ]
        assert ladder == sorted(ladder, reverse=True)

    @given(st.sampled_from(SETS), st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_latency_scales_with_n(self, pset, scale):
        p = get_params(pset)
        stretched = p.with_overrides(name="stretched", n=p.n * scale)
        base = simulate_bootstrap(MorphlingConfig(), p).bootstrap_latency_s
        longer = simulate_bootstrap(MorphlingConfig(), stretched).bootstrap_latency_s
        assert longer >= base


class TestSchedulerConservation:
    @given(st.integers(1, 400))
    @settings(max_examples=15, deadline=None)
    def test_every_bootstrap_scheduled_exactly_once(self, n_pbs):
        from repro.core.isa import XpuOp
        from repro.core.scheduler import SwScheduler

        sched = SwScheduler(MorphlingConfig(), get_params("I"))
        stream = sched.schedule([LayerDemand("l", n_pbs)])
        cols = stream.columns()
        total = int(cols.count[cols.code == XpuOp.BLIND_ROTATE.code].sum())
        assert total == n_pbs

    @given(st.lists(st.integers(1, 100), min_size=1, max_size=4))
    @settings(max_examples=15, deadline=None)
    def test_makespan_at_least_serial_xpu_time(self, layer_sizes):
        cfg, p = MorphlingConfig(), get_params("I")
        layers = [LayerDemand(f"l{i}", s) for i, s in enumerate(layer_sizes)]
        result = run_workload(cfg, p, layers)
        xpu = XpuModel(cfg, p)
        waves = sum(-(-s // cfg.bootstrap_cores) for s in layer_sizes)
        assert result.total_seconds >= waves * xpu.blind_rotation_seconds() - 1e-9

    @given(st.integers(1, 300))
    @settings(max_examples=10, deadline=None)
    def test_throughput_never_exceeds_analytic_bound(self, n_pbs):
        cfg, p = MorphlingConfig(), get_params("I")
        result = run_workload(cfg, p, [LayerDemand("l", n_pbs)])
        analytic = simulate_bootstrap(cfg, p).throughput_bs
        assert n_pbs / result.total_seconds <= analytic * 1.05
