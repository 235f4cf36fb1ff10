"""Tests for classic CGGI gate bootstrapping (the +-1/8 dialect)."""

import numpy as np
import pytest

from repro.tfhe.gatebootstrap import (
    and_gate,
    bootstrap_to_sign,
    decrypt_bool,
    encrypt_bool,
    mux_gate,
    nand_gate,
    not_gate,
    or_gate,
    xor_gate,
)

TRUTH = {
    nand_gate: lambda a, b: 1 - (a & b),
    and_gate: lambda a, b: a & b,
    or_gate: lambda a, b: a | b,
    xor_gate: lambda a, b: a ^ b,
}


@pytest.fixture(scope="module")
def gate_rng():
    return np.random.default_rng(314)


class TestEncoding:
    def test_roundtrip(self, ctx, gate_rng):
        for bit in (0, 1):
            ct = encrypt_bool(bit, ctx.keyset, gate_rng)
            assert decrypt_bool(ct, ctx.keyset) == bit

    def test_rejects_non_bits(self, ctx, gate_rng):
        with pytest.raises(ValueError):
            encrypt_bool(2, ctx.keyset, gate_rng)

    def test_not_is_free_negation(self, ctx, gate_rng):
        for bit in (0, 1):
            ct = not_gate(encrypt_bool(bit, ctx.keyset, gate_rng))
            assert decrypt_bool(ct, ctx.keyset) == 1 - bit


class TestGates:
    @pytest.mark.parametrize("gate", sorted(TRUTH, key=lambda f: f.__name__))
    def test_truth_tables(self, ctx, gate_rng, gate):
        for a in (0, 1):
            for b in (0, 1):
                out = gate(
                    encrypt_bool(a, ctx.keyset, gate_rng),
                    encrypt_bool(b, ctx.keyset, gate_rng),
                    ctx.keyset,
                )
                assert decrypt_bool(out, ctx.keyset) == TRUTH[gate](a, b), (a, b)

    @pytest.mark.parametrize("sel,w1,w0", [(0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1)])
    def test_mux(self, ctx, gate_rng, sel, w1, w0):
        out = mux_gate(
            encrypt_bool(sel, ctx.keyset, gate_rng),
            encrypt_bool(w1, ctx.keyset, gate_rng),
            encrypt_bool(w0, ctx.keyset, gate_rng),
            ctx.keyset,
        )
        assert decrypt_bool(out, ctx.keyset) == (w1 if sel else w0)

    def test_mux_is_visible_to_bootstrap_telemetry(self, ctx, gate_rng):
        """Sign bootstraps run the one pipeline, so the bootstrap counters
        and the request-latency histogram see them: a MUX is three
        bootstraps in two requests, one batch of 2 and one of 1."""
        from repro import observability as obs

        bits = [encrypt_bool(b, ctx.keyset, gate_rng) for b in (1, 0, 1)]
        with obs.telemetry() as (registry, _tracer):
            mux_gate(*bits, ctx.keyset)
            assert registry.get("tfhe_bootstraps_total").value() == 3
            assert registry.get("tfhe_gate_bootstraps_total").value() == 3
            latency = registry.get("tfhe_bootstrap_latency_seconds").snapshot()
        # Samples are count-weighted by the batch, so one request of each
        # size gives count == batch in its series.
        assert {s["labels"]["batch"]: s["count"]
                for s in latency["values"]} == {2: 2, 1: 1}

    def test_gates_compose_deeply(self, ctx, gate_rng):
        """A chain of NANDs: output noise stays fresh after each gate."""
        ct = encrypt_bool(1, ctx.keyset, gate_rng)
        one = encrypt_bool(1, ctx.keyset, gate_rng)
        for _ in range(4):
            ct = nand_gate(ct, one, ctx.keyset)  # NAND(x, 1) = NOT x
        assert decrypt_bool(ct, ctx.keyset) == 1  # four inversions

    def test_sign_bootstrap_refreshes(self, ctx, gate_rng):
        ct = encrypt_bool(1, ctx.keyset, gate_rng)
        refreshed = bootstrap_to_sign(ct, ctx.keyset)
        assert decrypt_bool(refreshed, ctx.keyset) == 1
