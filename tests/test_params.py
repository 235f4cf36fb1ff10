"""Tests for TFHE parameter sets (Tables I and III)."""

import pytest

from repro.params import (
    FIG1_PARAMS,
    PARAM_SETS,
    SCHEME_PROFILES,
    TEST_PARAMS,
    TFHEParams,
    get_params,
)


class TestTableIII:
    """The paper's seven sets, verbatim on the performance-driving fields."""

    PAPER = {
        "I": (1024, 500, 1, 2, 80),
        "II": (1024, 630, 1, 3, 110),
        "III": (2048, 592, 1, 3, 128),
        "IV": (2048, 742, 1, 1, 128),
        "A": (4096, 769, 1, 1, 128),
        "B": (1024, 497, 2, 2, 128),
        "C": (512, 487, 3, 3, 128),
    }

    @pytest.mark.parametrize("name", sorted(PAPER))
    def test_matches_paper(self, name):
        N, n, k, l_b, lam = self.PAPER[name]
        p = PARAM_SETS[name]
        assert (p.N, p.n, p.k, p.l_b, p.lam) == (N, n, k, l_b, lam)

    def test_fig1_set(self):
        assert (FIG1_PARAMS.N, FIG1_PARAMS.n, FIG1_PARAMS.k,
                FIG1_PARAMS.l_b, FIG1_PARAMS.l_k) == (1024, 481, 2, 4, 9)


class TestDerivedQuantities:
    def test_polymults_per_external_product(self):
        p = get_params("C")
        assert p.polymults_per_external_product == 48

    def test_polymults_per_bootstrap_exceeds_10k(self):
        """The paper's motivation: >10,000 polynomial multiplications."""
        assert FIG1_PARAMS.polymults_per_bootstrap > 10_000

    def test_bsk_size_fig1(self):
        # n * (k+1)^2 * l_b * N * 4 bytes = 70.9 MB for the Fig. 1 set.
        assert FIG1_PARAMS.bsk_bytes == 481 * 36 * 1024 * 4

    def test_ksk_size_fig1_near_paper(self):
        # paper reports 33.8 MB
        assert FIG1_PARAMS.ksk_bytes / 1e6 == pytest.approx(35.5, rel=0.02)

    def test_transform_bsk_same_size_as_packed(self):
        p = get_params("I")
        assert p.bsk_transform_bytes == p.bsk_bytes

    def test_glwe_lwe_dimension(self):
        assert get_params("B").glwe_lwe_dimension == 2 * 1024


class TestValidation:
    def test_rejects_non_power_of_two_n(self):
        with pytest.raises(ValueError):
            TFHEParams("bad", N=1000, n=10, k=1, l_b=1, lam=0)

    def test_rejects_overwide_decomposition(self):
        with pytest.raises(ValueError):
            TFHEParams("bad", N=1024, n=10, k=1, l_b=5, lam=0, beta_bits=8)

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            TFHEParams("bad", N=1024, n=0, k=1, l_b=1, lam=0)

    def test_with_overrides_revalidates(self):
        with pytest.raises(ValueError):
            TEST_PARAMS.with_overrides(n=-1)

    def test_get_params_unknown(self):
        with pytest.raises(KeyError):
            get_params("Z")

    def test_get_params_aliases(self):
        assert get_params("fig1") is FIG1_PARAMS
        assert get_params("test") is TEST_PARAMS


class TestTableI:
    def test_tfhe_is_small_parameter(self):
        assert SCHEME_PROFILES["TFHE"].is_small_parameter
        assert not SCHEME_PROFILES["TFHE"].needs_rns

    def test_large_parameter_schemes(self):
        for scheme in ("CKKS", "BGV", "BFV"):
            profile = SCHEME_PROFILES[scheme]
            assert not profile.is_small_parameter
            assert profile.needs_rns

    def test_only_tfhe_has_programmable_bootstrap(self):
        pbs = [s for s, p in SCHEME_PROFILES.items() if p.programmable_bootstrap]
        assert pbs == ["TFHE"]
