"""Tests for the transform-domain reuse analysis (Fig. 3 combinatorics)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reuse import (
    ReuseType,
    acc_input_reuse_factor,
    acc_output_reuse_factor,
    bsk_reuse_factor,
    reduction_vs_no_reuse,
    transforms_per_bootstrap,
    transforms_per_external_product,
)
from repro.params import get_params

ks = st.integers(min_value=1, max_value=4)
lbs = st.integers(min_value=1, max_value=6)


class TestPerExternalProduct:
    def test_no_reuse_counts(self):
        c = transforms_per_external_product(3, 3, ReuseType.NO_REUSE)
        assert c.forward == c.inverse == 48
        assert c.total == 96

    def test_input_reuse_counts(self):
        c = transforms_per_external_product(3, 3, ReuseType.INPUT_REUSE)
        assert c.forward == 12
        assert c.inverse == 48

    def test_input_output_reuse_counts(self):
        c = transforms_per_external_product(3, 3, ReuseType.INPUT_OUTPUT_REUSE)
        assert c.forward == 12
        assert c.inverse == 4
        assert c.total == 16

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            transforms_per_external_product(0, 1, ReuseType.NO_REUSE)
        with pytest.raises(ValueError):
            transforms_per_external_product(1, 0, ReuseType.NO_REUSE)

    @given(ks, lbs)
    @settings(max_examples=60, deadline=None)
    def test_reuse_strictly_ordered(self, k, l_b):
        no = transforms_per_external_product(k, l_b, ReuseType.NO_REUSE).total
        inp = transforms_per_external_product(k, l_b, ReuseType.INPUT_REUSE).total
        both = transforms_per_external_product(k, l_b, ReuseType.INPUT_OUTPUT_REUSE).total
        assert no > inp > both or (k == 0)

    @given(ks, lbs)
    @settings(max_examples=60, deadline=None)
    def test_formulas(self, k, l_b):
        no = transforms_per_external_product(k, l_b, ReuseType.NO_REUSE)
        assert no.total == 2 * (k + 1) ** 2 * l_b
        both = transforms_per_external_product(k, l_b, ReuseType.INPUT_OUTPUT_REUSE)
        assert both.total == (k + 1) * l_b + (k + 1)


class TestFig3Numbers:
    """The paper's headline numbers are exact consequences."""

    def test_46752_total_for_set_c(self):
        p = get_params("C")
        assert transforms_per_bootstrap(p, ReuseType.NO_REUSE).total == 46752

    def test_25_percent_reduction_at_1_1(self):
        assert reduction_vs_no_reuse(1, 1, ReuseType.INPUT_REUSE) == pytest.approx(0.25)

    def test_37_5_percent_reduction_at_3_3(self):
        assert reduction_vs_no_reuse(3, 3, ReuseType.INPUT_REUSE) == pytest.approx(0.375)

    def test_83_3_percent_reduction_at_3_3(self):
        assert reduction_vs_no_reuse(3, 3, ReuseType.INPUT_OUTPUT_REUSE) == pytest.approx(
            5 / 6, abs=1e-9
        )

    def test_50_percent_reduction_at_1_1_io(self):
        assert reduction_vs_no_reuse(1, 1, ReuseType.INPUT_OUTPUT_REUSE) == pytest.approx(0.5)

    @given(ks, lbs)
    @settings(max_examples=60, deadline=None)
    def test_reduction_grows_with_parameters(self, k, l_b):
        """Fig. 3's observation: more (k, l_b) -> more reduction."""
        r1 = reduction_vs_no_reuse(k, l_b, ReuseType.INPUT_OUTPUT_REUSE)
        r2 = reduction_vs_no_reuse(k + 1, l_b, ReuseType.INPUT_OUTPUT_REUSE)
        r3 = reduction_vs_no_reuse(k, l_b + 1, ReuseType.INPUT_OUTPUT_REUSE)
        assert r2 >= r1 - 1e-12
        assert r3 >= r1 - 1e-12


class TestReuseFactors:
    def test_acc_input_factor(self):
        assert acc_input_reuse_factor(2) == 3

    def test_acc_output_factor(self):
        assert acc_output_reuse_factor(2, 4) == 12

    def test_bsk_reuse_default_is_64(self):
        assert bsk_reuse_factor(4, 4, 4) == 64

    def test_bsk_reuse_validates(self):
        with pytest.raises(ValueError):
            bsk_reuse_factor(0, 4, 4)
