"""Tests for the bootstrapping-key unrolling trade-off (MATCHA's technique, refs [59][60])."""

import pytest

from repro.params import get_params
from repro.tfhe.unrolled import unrolled_blind_rotation_tradeoff


class TestTradeoff:
    def test_halves_iterations(self):
        t = unrolled_blind_rotation_tradeoff(get_params("I"))
        assert t["unrolled_iterations"] == t["plain_iterations"] // 2
        assert t["latency_ratio"] == pytest.approx(0.5)

    def test_work_grows_1_5x(self):
        t = unrolled_blind_rotation_tradeoff(get_params("I"))
        assert t["work_ratio"] == pytest.approx(1.5)

    def test_key_grows_1_5x(self):
        t = unrolled_blind_rotation_tradeoff(get_params("I"))
        assert t["unrolled_bsk_bytes"] == pytest.approx(1.5 * t["plain_bsk_bytes"])

    def test_odd_n_keeps_a_tail(self):
        t = unrolled_blind_rotation_tradeoff(get_params("C"))  # n = 487
        assert t["unrolled_iterations"] == 487 // 2 + 1
