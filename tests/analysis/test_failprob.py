"""Tests for the decryption-failure probability estimator."""

import math

import pytest

from repro.observability.failprob import (
    WorkloadFailureReport,
    estimate_failure_probability,
)
from repro.observability.noise import NoiseTracker
from repro.tfhe.noise import LOG2_PROB_FLOOR, gaussian_tail_log2


class TestGaussianTail:
    def test_zero_or_negative_margin_is_certain_failure(self):
        assert gaussian_tail_log2(0.0, 1e-12) == 0.0
        assert gaussian_tail_log2(-0.1, 1e-12) == 0.0

    def test_zero_variance_is_numerically_never(self):
        assert gaussian_tail_log2(0.1, 0.0) == LOG2_PROB_FLOOR

    def test_moderate_tail_matches_erfc(self):
        # 2 sigma: P(|N| > 2 std) = erfc(2 / sqrt 2)
        p = gaussian_tail_log2(2e-3, 1e-6)
        assert p == pytest.approx(math.log2(math.erfc(2 / math.sqrt(2))))

    def test_one_sigma_is_about_a_third(self):
        assert 2.0 ** gaussian_tail_log2(1e-3, 1e-6) == pytest.approx(
            0.3173, abs=1e-3)

    def test_asymptotic_branch_continues_erfc_smoothly(self):
        """The erfc->expansion handoff at z = 36 must not jump."""
        std = 1.0
        below = gaussian_tail_log2(35.9 * std, std * std)
        above = gaussian_tail_log2(36.1 * std, std * std)
        assert below > above  # still decreasing across the switch
        assert abs((above - below) - (-2 * 36 * math.log2(math.e) * 0.1)) < 1.0

    def test_deep_tail_does_not_underflow(self):
        # 75 sigma - far beyond double-precision erfc, above the floor.
        p = gaussian_tail_log2(75e-5, 1e-10)
        assert p == pytest.approx(-0.5 * 75**2 * math.log2(math.e), rel=0.01)
        assert LOG2_PROB_FLOOR < p < -4000

    def test_monotone_in_margin(self):
        probs = [gaussian_tail_log2(m, 1e-6) for m in (1e-4, 1e-3, 1e-2, 1e-1)]
        assert probs == sorted(probs, reverse=True)

    def test_floor_clamps_absurd_tails(self):
        assert gaussian_tail_log2(1.0, 1e-12) == LOG2_PROB_FLOOR


def tracker_with_points(points):
    tr = NoiseTracker(enabled=True)
    for kind, margin, variance in points:
        tr.record_failure_point(kind, margin, variance)
    return tr


class TestWorkloadReport:
    def test_empty_tracker_reports_floor(self):
        report = estimate_failure_probability(NoiseTracker(enabled=True))
        assert report.points == ()
        assert report.total_log2_prob == LOG2_PROB_FLOOR
        assert report.worst is None
        assert report.within_budget

    def test_single_point_totals_its_own_tail(self):
        report = estimate_failure_probability(
            tracker_with_points([("decode", 2e-3, 1e-6)]))
        (point,) = report.points
        assert point.sigmas == pytest.approx(2.0)
        assert report.total_log2_prob == pytest.approx(point.log2_prob)
        assert report.worst is point

    def test_union_bound_brackets_the_total(self):
        """worst <= total <= worst + log2(n) for n equal points."""
        n = 8
        report = estimate_failure_probability(
            tracker_with_points([("decode", 5e-3, 1e-6)] * n))
        worst = report.worst.log2_prob
        assert report.total_log2_prob >= worst
        assert report.total_log2_prob == pytest.approx(worst + math.log2(n))

    def test_dominant_point_dominates(self):
        report = estimate_failure_probability(tracker_with_points(
            [("decode", 3e-3, 1e-6), ("bootstrap_decision", 30e-3, 1e-6)]))
        assert report.total_log2_prob == pytest.approx(
            report.worst.log2_prob, abs=1e-6)
        assert report.worst.kind == "decode"

    def test_total_probability_caps_at_one(self):
        report = estimate_failure_probability(
            tracker_with_points([("decode", 0.0, 1e-6)] * 4))
        assert report.total_log2_prob == 0.0
        assert not report.within_budget

    def test_jsonable_and_text_renderings(self):
        report = estimate_failure_probability(
            tracker_with_points([("sign_decode", 4e-3, 1e-6)]))
        doc = report.to_jsonable()
        assert doc["num_points"] == 1
        assert doc["worst"]["kind"] == "sign_decode"
        assert math.isfinite(doc["total_log2_prob"])
        text = report.render_text()
        assert "log2(p_fail)" in text
        assert "sign_decode" in text

    def test_meets_is_a_hard_threshold(self):
        assert WorkloadFailureReport(total_log2_prob=-20.0).within_budget
        assert not WorkloadFailureReport(total_log2_prob=-19.9).within_budget

    def test_text_ends_with_the_shared_bound_and_verdict(self):
        report = estimate_failure_probability(
            tracker_with_points([("decode", 2e-3, 1e-6)]))
        *_, bound, verdict = report.render_text().splitlines()
        assert bound.startswith("  log2(p_fail) <= ")
        assert verdict == "  within 2^-20 budget: NO"
