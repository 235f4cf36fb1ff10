"""VER008 / static_noise_report: the compile-time noise-budget bound.

The acceptance case ties the static bound to the runtime telemetry: the
same 2-bit adder the ``repro obs noise`` CLI runs, compiled to an
instruction stream on one side and executed with the noise tracker on
the other, must agree on ``log2(p_fail)`` within one order of magnitude
(the union-bound slack).
"""

import math

import pytest

from repro.core.isa import DmaOp, XpuOp
from repro.params import get_params
from repro.tfhe.noise import decision_margin
from repro.verify import verify_stream
from repro.verify.noisepass import static_noise_report

from .._programs import Row, chain, stream as emitted


def _chain(params, **kw):
    """The bootstrap chain of ``_programs.chain`` as a stream."""
    return emitted(chain(params, **kw))


class TestVer008Pass:
    def test_single_level_regime_warns(self):
        # Set IV's single-level decomposition breaches 2^-20 even for a
        # small batch; the program is still well-formed (warning only).
        params = get_params("IV")
        report = verify_stream(_chain(params), params=params,
                               passes=["VER008"])
        assert report.ok  # warnings never fail verification
        assert len(report.warnings) == 1
        diag = report.warnings[0]
        assert diag.code == "VER008"
        assert "parameter" in diag.message
        assert diag.op == XpuOp.BLIND_ROTATE.value

    def test_production_regime_clean(self):
        params = get_params("III")
        report = verify_stream(_chain(params), params=params,
                               passes=["VER008"])
        assert report.diagnostics == []

    def test_skipped_without_params(self):
        assert verify_stream(_chain(get_params("IV")),
                             passes=["VER008"]).diagnostics == []

    def test_skipped_without_bootstraps(self):
        params = get_params("IV")
        stream = emitted([Row(0, DmaOp.LOAD_LWE, 0, count=1,
                                  data_bytes=params.lwe_bytes)])
        assert verify_stream(stream, params=params,
                             passes=["VER008"]).diagnostics == []


class TestStaticReport:
    def test_counts_every_bootstrapped_ciphertext(self):
        params = get_params("III")
        stream = emitted(chain(params, group=0, count=5)
                         + chain(params, group=1, count=7, base=8))
        report = static_noise_report(stream, params)
        assert report.bootstraps == 12
        assert report.params_name == "III"
        assert "schema_version" not in report.to_jsonable()  # the envelope's

    def test_union_bound_scales_with_count(self):
        params = get_params("III")
        one = static_noise_report(_chain(params, count=1), params)
        four = static_noise_report(_chain(params, count=4), params)
        assert four.per_bootstrap_log2_prob == one.per_bootstrap_log2_prob
        assert four.total_log2_prob == pytest.approx(
            one.total_log2_prob + 2.0)

    def test_bare_rotation_falls_back_to_closed_form(self):
        # No key-switch in the stream: the terminal variance must still
        # be the closed-form bootstrap output, not zero.
        params = get_params("III")
        stream = emitted([Row(0, XpuOp.BLIND_ROTATE, 0, count=4)])
        bare = static_noise_report(stream, params)
        full = static_noise_report(_chain(params, count=4), params)
        assert bare.bootstrap_output_variance == \
            full.bootstrap_output_variance > 0.0

    def test_margin_defaults_to_lut_geometry(self):
        params = get_params("III")
        report = static_noise_report(_chain(params), params)
        assert report.margin == decision_margin(params, 8)
        assert decision_margin(params, 8) == \
            1.0 / 16.0 - 1.0 / (4.0 * params.N)

    def test_jsonable_carries_the_verdict(self):
        params = get_params("IV")
        doc = static_noise_report(_chain(params), params).to_jsonable()
        assert doc["within_budget"] is False
        assert doc["params"] == "IV"
        assert doc["total_log2_prob"] > doc["log2_budget"]

    def test_render_text_names_the_budget(self):
        params = get_params("III")
        text = static_noise_report(_chain(params), params).render_text()
        assert "static noise budget" in text
        assert "within 2^-20 budget: yes" in text


class TestStaticMatchesRuntime:
    def test_adder_bound_agrees_with_noise_telemetry(self):
        """Acceptance: static VER008 bound vs `repro obs noise --fail-prob`.

        Compile the reference 2-bit adder to an instruction stream and
        bound it statically; run the same circuit through the functional
        TFHE path with the noise tracker and estimate the failure
        probability from the recorded decision points.  The two
        ``log2(p_fail)`` values must agree within one order of magnitude
        (log2(10)): per-point tails are identical by construction, so
        the only slack is union bound vs log-sum-exp.
        """
        from repro.observability.failprob import estimate_failure_probability
        from repro.core.accelerator import MorphlingConfig
        from repro.core.compiler import compile_program
        from repro.observability import noise_tracking
        from repro.tfhe.boolean import Circuit, ripple_carry_adder
        from repro.tfhe.ops import TfheContext

        params = get_params("test")

        circuit = Circuit()
        a_bits = [circuit.add_input("a0"), circuit.add_input("a1")]
        b_bits = [circuit.add_input("b0"), circuit.add_input("b1")]
        sums, carry = ripple_carry_adder(circuit, a_bits, b_bits)
        for i, s in enumerate(sums):
            circuit.mark_output(s, f"s{i}")
        circuit.mark_output(carry, "carry")

        _, stream, _ = compile_program(
            circuit, MorphlingConfig.morphling(), params)
        static = static_noise_report(stream, params)

        ctx = TfheContext.create(params, seed=7)
        inputs = {"a0": 1, "a1": 1, "b0": 1, "b1": 0}
        with noise_tracking() as tracker:
            enc = {k: ctx.encrypt(v) for k, v in inputs.items()}
            circuit.evaluate_encrypted(ctx, enc)
        runtime = estimate_failure_probability(tracker)

        assert static.bootstraps == len(runtime.points) == 7
        assert abs(static.total_log2_prob - runtime.total_log2_prob) <= \
            math.log2(10.0)
        # The static number must bound the runtime one (union >= lse).
        assert static.total_log2_prob >= runtime.total_log2_prob
