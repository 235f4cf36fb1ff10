"""Tests for noise-budget planning and multi-LUT bootstrapping."""

import pytest

from repro import TEST_PARAMS
from repro.tfhe.budget import BootstrapPlanner, LinearOp, NoiseBudget
from repro.tfhe.multilut import (
    make_multi_test_polynomial,
    max_luts_for_params,
    multi_lut_bootstrap,
)

P = 8


class TestNoiseBudget:
    def test_fresh_below_bootstrapped(self):
        fresh = NoiseBudget.fresh(TEST_PARAMS)
        boot = NoiseBudget.bootstrapped(TEST_PARAMS)
        assert fresh.variance < boot.variance

    def test_addition_adds_variances(self):
        a = NoiseBudget.fresh(TEST_PARAMS)
        assert a.add(a).variance == pytest.approx(2 * a.variance)

    def test_scalar_mul_squares(self):
        a = NoiseBudget.fresh(TEST_PARAMS)
        assert a.scalar_mul(3).variance == pytest.approx(9 * a.variance)

    def test_weighted_sum(self):
        a = NoiseBudget.fresh(TEST_PARAMS)
        assert a.weighted_sum((1, 2, 2)).variance == pytest.approx(9 * a.variance)

    def test_decode_check_monotone_in_p(self):
        boot = NoiseBudget.bootstrapped(TEST_PARAMS)
        assert boot.decodes_at(2)
        # a large enough modulus must eventually fail
        assert not boot.decodes_at(1 << 16)


class TestBootstrapPlanner:
    def test_light_program_needs_no_bootstraps(self):
        planner = BootstrapPlanner(TEST_PARAMS, P)
        plan = planner.plan([LinearOp("a", (1, 1)), LinearOp("b", (1, -1))])
        assert plan.total_bootstraps == 0
        assert all(not b for _, b in plan.steps)

    def test_heavy_chain_inserts_bootstraps(self):
        # Each level multiplies the noise std by ~64: two levels must
        # force a reset in between.
        planner = BootstrapPlanner(TEST_PARAMS, P)
        heavy = LinearOp("heavy", tuple([16] * 16))
        plan = planner.plan([heavy, heavy, heavy])
        assert plan.total_bootstraps >= 1
        assert plan.final_budget.decodes_at(P)

    def test_impossible_op_rejected(self):
        planner = BootstrapPlanner(TEST_PARAMS, P)
        with pytest.raises(ValueError):
            planner.plan([LinearOp("monster", tuple([1 << 14] * 64))])

    def test_plan_to_layers(self):
        planner = BootstrapPlanner(TEST_PARAMS, P)
        heavy = LinearOp("heavy", tuple([16] * 16))
        plan = planner.plan([heavy, heavy, heavy])
        layers = plan.to_layers(values_per_level=10)
        assert sum(l.bootstraps for l in layers) == 10 * plan.total_bootstraps

    def test_linear_only_plan_has_empty_layer(self):
        planner = BootstrapPlanner(TEST_PARAMS, P)
        plan = planner.plan([LinearOp("a", (1,))])
        layers = plan.to_layers()
        assert len(layers) == 1
        assert layers[0].bootstraps == 0

    def test_undecodable_modulus_rejected_up_front(self):
        with pytest.raises(ValueError):
            BootstrapPlanner(TEST_PARAMS, 1 << 16)

    def test_invalid_modulus(self):
        with pytest.raises(ValueError):
            BootstrapPlanner(TEST_PARAMS, 1)


class TestMultiLut:
    def test_two_luts_one_rotation(self, ctx):
        luts = [lambda x: x, lambda x: (x * 2) % 4]
        for m in range(4):
            outs = multi_lut_bootstrap(ctx.encrypt(m, P), luts, ctx.keyset, P)
            assert ctx.decrypt(outs[0], P) == m
            assert ctx.decrypt(outs[1], P) == (m * 2) % 4

    def test_three_luts(self, ctx):
        luts = [lambda x: x, lambda x: (3 - x) % 4, lambda x: 1 if x > 1 else 0]
        outs = multi_lut_bootstrap(ctx.encrypt(2, P), luts, ctx.keyset, P)
        assert [ctx.decrypt(o, P) for o in outs] == [2, 1, 1]

    def test_outputs_keep_their_noise_provenance(self, ctx):
        from repro.observability import noise_tracking
        from repro.tfhe.torus import decode_message

        luts = [lambda x: x, lambda x: (3 - x) % 4]
        with noise_tracking() as tracker:
            ct = ctx.encrypt(1, P)
            outs = multi_lut_bootstrap(ct, luts, ctx.keyset, P)
            for out, lut in zip(outs, luts):
                record = tracker.record_of(out)
                assert record.parents == (tracker.record_of(ct).op_id,)
                assert decode_message(record.expected, P) == lut(1)
                assert ctx.decrypt(out, P) == lut(1)
            kinds = [p.kind for p in tracker.failure_points()]
        assert kinds.count("bootstrap_decision") == kinds.count("decode") == 2

    def test_sequence_tables_accepted(self, ctx):
        outs = multi_lut_bootstrap(ctx.encrypt(1, P), [[0, 1, 2, 3]], ctx.keyset, P)
        assert ctx.decrypt(outs[0], P) == 1

    def test_too_many_tables_rejected(self):
        too_many = [lambda x: x] * (2 * TEST_PARAMS.N)
        with pytest.raises(ValueError):
            make_multi_test_polynomial(too_many, TEST_PARAMS, P)

    def test_empty_tables_rejected(self):
        with pytest.raises(ValueError):
            make_multi_test_polynomial([], TEST_PARAMS, P)

    def test_single_lut_matches_plain_test_polynomial(self):
        from repro.tfhe.encoding import make_test_polynomial
        import numpy as np

        lut = np.arange(P // 2, dtype=np.int64)
        multi = make_multi_test_polynomial([lut], TEST_PARAMS, P)
        plain = make_test_polynomial(lut, TEST_PARAMS, P)
        np.testing.assert_array_equal(multi, plain)

    def test_budget_shrinks_with_more_tables(self):
        assert max_luts_for_params(TEST_PARAMS, 8) >= 2
        assert max_luts_for_params(TEST_PARAMS, 8) > max_luts_for_params(TEST_PARAMS, 32)
