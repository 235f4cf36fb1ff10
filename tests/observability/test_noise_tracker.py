"""Unit tests for the noise tracker: recording, provenance, labels, drift."""

import math
from types import SimpleNamespace

import pytest

from repro import observability as obs
from repro.observability import (
    NoiseTracker,
    drift_report,
    noise_trace_events,
    noise_tracking,
)

_Q = 1 << 32


def ct():
    """A stand-in ciphertext: any attribute-capable object works."""
    return SimpleNamespace()


class TestLifecycle:
    def test_disabled_tracker_records_nothing(self):
        tr = NoiseTracker()
        assert tr.track(ct(), "lwe_encrypt", 1e-12, 5) is None
        tr.record_failure_point("decode", 0.1, 1e-12)
        assert len(tr) == 0
        assert tr.failure_points() == []

    def test_labelled_is_noop_while_disabled(self):
        tr = NoiseTracker()
        with tr.labelled("gate:nand"):
            pass
        assert tr._current_label() == ""

    def test_reset_clears_records_but_keeps_key(self):
        tr = NoiseTracker(enabled=True)
        tr.register_debug_key(SimpleNamespace(bits=None))
        tr.track(ct(), "lwe_encrypt", 1e-12, 5)
        tr.record_failure_point("decode", 0.1, 1e-12)
        tr.reset()
        assert len(tr) == 0
        assert tr.failure_points() == []
        assert tr.measuring

    def test_noise_tracking_restores_prior_state(self):
        tr = NoiseTracker()
        with noise_tracking(tracker=tr) as active:
            assert active is tr
            assert tr.enabled
        assert not tr.enabled
        assert not tr.measuring


class TestRecording:
    def test_track_attaches_record(self):
        tr = NoiseTracker(enabled=True)
        x = ct()
        record = tr.track(x, "lwe_encrypt", 4e-14, 123, note="fresh")
        assert tr.record_of(x) is record
        assert record.op_id == 0
        assert record.predicted_std == pytest.approx(2e-7)
        assert record.meta == {"note": "fresh"}
        assert record.measured is None and record.sigma is None

    def test_expected_shadow_reduces_mod_q(self):
        tr = NoiseTracker(enabled=True)
        record = tr.track(ct(), "lwe_neg", 1e-14, -5)
        assert record.expected == _Q - 5

    def test_linear_op_propagates_variance_and_shadow(self):
        tr = NoiseTracker(enabled=True)
        x, y = ct(), ct()
        tr.track(x, "lwe_encrypt", 1e-14, 100)
        tr.track(y, "lwe_encrypt", 3e-14, 200)
        record = tr.track_linear(ct(), "lwe_add", [(1, x), (1, y)])
        assert record.predicted_variance == pytest.approx(4e-14)
        assert record.expected == 300
        assert record.parents == (0, 1)

    def test_duplicate_operand_weights_merge_before_squaring(self):
        """x + x quadruples the variance - the correlated-operand case."""
        tr = NoiseTracker(enabled=True)
        x = ct()
        tr.track(x, "lwe_encrypt", 1e-14, 100)
        record = tr.track_linear(ct(), "lwe_add", [(1, x), (1, x)])
        assert record.predicted_variance == pytest.approx(4e-14)
        assert record.expected == 200

    def test_untracked_operand_leaves_output_untracked(self):
        tr = NoiseTracker(enabled=True)
        x, stranger = ct(), ct()
        tr.track(x, "lwe_encrypt", 1e-14, 100)
        out = ct()
        assert tr.track_linear(out, "lwe_add", [(1, x), (1, stranger)]) is None
        assert tr.record_of(out) is None

    def test_plain_offset_shifts_shadow_not_variance(self):
        tr = NoiseTracker(enabled=True)
        x = ct()
        tr.track(x, "lwe_encrypt", 1e-14, 100)
        record = tr.track_linear(ct(), "lwe_add_plain", [(1, x)],
                                 plain_offset=50)
        assert record.expected == 150
        assert record.predicted_variance == pytest.approx(1e-14)

    def test_labels_nest(self):
        tr = NoiseTracker(enabled=True)
        with tr.labelled("int:add"):
            with tr.labelled("gate:xor"):
                inner = tr.track(ct(), "programmable_bootstrap", 1e-14, 0)
            outer = tr.track(ct(), "lwe_add", 1e-14, 0)
        outside = tr.track(ct(), "lwe_encrypt", 1e-14, 0)
        assert inner.label == "gate:xor"
        assert outer.label == "int:add"
        assert outside.label == ""

    def test_failure_point_defaults_to_latest_record(self):
        tr = NoiseTracker(enabled=True)
        tr.track(ct(), "programmable_bootstrap", 1e-14, 0)
        tr.record_failure_point("bootstrap_decision", 0.05, 2e-14)
        (point,) = tr.failure_points()
        assert point.op_id == 0
        assert point.kind == "bootstrap_decision"
        assert point.margin == pytest.approx(0.05)

    def test_slotted_objects_stay_silently_untracked(self):
        class Slotted:
            __slots__ = ()

        tr = NoiseTracker(enabled=True)
        record = tr.track(Slotted(), "lwe_encrypt", 1e-14, 0)
        assert record is not None  # recorded in the buffer...
        assert tr.record_of(Slotted()) is None  # ...but not attachable


class TestDrift:
    def _tracker_with_measurements(self, errors, std=1e-7):
        tr = NoiseTracker(enabled=True)
        for err in errors:
            record = tr.track(ct(), "lwe_encrypt", std * std, 0)
            record.measured = err
        return tr

    def test_within_envelope(self):
        tr = self._tracker_with_measurements([1e-7, -2e-7, 0.5e-7])
        (drift,) = drift_report(tr, sigmas=6.0)
        assert drift.op == "lwe_encrypt"
        assert drift.count == 3 and drift.measured_count == 3
        assert drift.worst_sigma == pytest.approx(2.0)
        assert drift.within_envelope

    def test_outlier_flags_drift(self):
        tr = self._tracker_with_measurements([1e-7, 9e-7])
        (drift,) = drift_report(tr, sigmas=6.0)
        assert drift.worst_sigma == pytest.approx(9.0)
        assert not drift.within_envelope

    def test_unmeasured_class_reports_envelope_but_zero_count(self):
        tr = NoiseTracker(enabled=True)
        tr.track(ct(), "lwe_add", 1e-14, 0)
        (drift,) = drift_report(tr)
        assert drift.measured_count == 0
        assert drift.within_envelope
        assert drift.measured_rms == 0.0

    def test_classes_sorted_by_op_name(self):
        tr = NoiseTracker(enabled=True)
        tr.track(ct(), "lwe_encrypt", 1e-14, 0)
        tr.track(ct(), "lwe_add", 1e-14, 0)
        assert [d.op for d in drift_report(tr)] == ["lwe_add", "lwe_encrypt"]


class TestExport:
    def test_snapshot_is_plain_data(self):
        tr = NoiseTracker(enabled=True)
        x = ct()
        tr.track(x, "lwe_encrypt", 1e-14, 100)
        tr.track_linear(ct(), "lwe_add", [(1, x)])
        tr.record_failure_point("decode", 0.05, 1e-14)
        snap = tr.snapshot()
        assert snap["measured"] is False
        assert [r["op"] for r in snap["records"]] == ["lwe_encrypt", "lwe_add"]
        assert snap["records"][1]["parents"] == [0]
        assert snap["failure_points"][0]["kind"] == "decode"

    def test_waterfall_events_carry_flows_and_counters(self):
        tr = NoiseTracker(enabled=True)
        x = ct()
        tr.track(x, "lwe_encrypt", 1e-14, 100)
        with tr.labelled("gate:nand"):
            tr.track(ct(), "programmable_bootstrap", 4e-14, 0, parents=(x,))
        events = noise_trace_events(tr)
        complete = [e for e in events if e["ph"] == "X"]
        assert [e["name"] for e in complete] == [
            "lwe_encrypt", "programmable_bootstrap"]
        flows = [e for e in events if e["ph"] in ("s", "f")]
        assert {e["id"] for e in flows} == {"n0->1"}
        counters = [e for e in events if e["ph"] == "C"]
        assert all(e["name"] == "predicted_std_log2" for e in counters)
        assert counters[0]["args"]["value"] == pytest.approx(
            math.log2(1e-7), abs=0.01)

    def test_records_stay_in_the_tracker(self):
        """A record lands in the tracker alone: no registry series and no
        span mirror it (the waterfall renders from the records)."""
        with obs.telemetry():
            obs.NOISE.track(ct(), "lwe_encrypt", 1e-14, 100)
            assert len(obs.NOISE) == 1
            assert not any(m["values"] for m in obs.REGISTRY.snapshot().values())
            assert obs.TRACER.spans() == []
        obs.reset()
