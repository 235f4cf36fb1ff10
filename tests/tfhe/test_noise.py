"""Tests for noise variance prediction vs measurement."""

import pytest

from repro import TEST_PARAMS, get_params
from repro.tfhe import identity_test_polynomial, programmable_bootstrap
from repro.tfhe.noise import (
    DEFAULT_LOG2_BUDGET,
    blind_rotation_noise_variance,
    bootstrap_output_noise_std_log2,
    decision_margin,
    external_product_noise_variance,
    gaussian_tail_log2,
    key_switch_noise_variance,
    measure_lwe_noise,
    modulus_switch_noise_variance,
)
from repro.tfhe.torus import encode_message

P = 8


class TestFormulas:
    def test_external_product_noise_grows_with_input(self):
        lo = external_product_noise_variance(TEST_PARAMS, 0.0)
        hi = external_product_noise_variance(TEST_PARAMS, 1e-12)
        assert hi > lo

    def test_blind_rotation_scales_with_n(self):
        small = TEST_PARAMS
        big = TEST_PARAMS.with_overrides(name="big-n", n=4 * TEST_PARAMS.n)
        assert blind_rotation_noise_variance(big) == pytest.approx(
            4 * blind_rotation_noise_variance(small)
        )

    def test_key_switch_adds_noise(self):
        base = 1e-15
        assert key_switch_noise_variance(TEST_PARAMS, base) > base

    def test_paper_sets_have_positive_budgets(self):
        for name in ["I", "II", "III", "IV", "A", "B", "C"]:
            params = get_params(name)
            std_log2 = bootstrap_output_noise_std_log2(params)
            assert std_log2 < 0  # stddev below 1 torus unit

    def test_decode_budget(self):
        # Half a Z_8 bucket, less half a modulus-switch step.
        assert decision_margin(TEST_PARAMS, 8) == 1 / 16 - 1 / (4 * TEST_PARAMS.N)
        assert decision_margin(TEST_PARAMS, 8, luts=2) == \
            1 / 32 - 1 / (4 * TEST_PARAMS.N)


class TestMeasurement:
    def test_fresh_encryption_noise_is_small(self, ctx):
        expected = int(encode_message(1, P)[()])
        ct = ctx.encrypt(1, P)
        err = abs(measure_lwe_noise(ct, ctx.keyset.lwe_key, expected))
        assert err < 2.0 ** (TEST_PARAMS.lwe_noise_log2 + 6)

    def test_measured_bootstrap_noise_within_predicted_budget(self, ctx):
        """The paper's correctness invariant: observed noise < decode budget."""
        tp = identity_test_polynomial(ctx.params, P)
        expected = int(encode_message(2, P)[()])
        worst = 0.0
        for _ in range(5):
            out = programmable_bootstrap(ctx.encrypt(2, P), tp, ctx.keyset)
            worst = max(worst, abs(measure_lwe_noise(out, ctx.keyset.lwe_key, expected)))
        assert worst < decision_margin(ctx.params, P)

    def test_predicted_std_is_sane_for_test_params(self):
        # A p=8 decision on a bootstrapped input must meet the decode
        # budget, otherwise the functional tests above could not be passing.
        variance = (2.0 ** bootstrap_output_noise_std_log2(TEST_PARAMS)) ** 2 \
            + modulus_switch_noise_variance(TEST_PARAMS)
        assert gaussian_tail_log2(decision_margin(TEST_PARAMS, P), variance) \
            <= DEFAULT_LOG2_BUDGET
