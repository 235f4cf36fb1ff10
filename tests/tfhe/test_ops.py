"""Tests for gate-level and LUT-level homomorphic operations."""

import numpy as np
import pytest

from repro import TEST_PARAMS, TfheContext
from repro.tfhe.ops import GATE_LUTS


TRUTH_TABLES = {
    "nand": [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0)],
    "and": [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)],
    "or": [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)],
    "nor": [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0)],
    "xor": [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)],
    "xnor": [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)],
}


class TestGates:
    @pytest.mark.parametrize("gate", sorted(GATE_LUTS))
    def test_truth_table(self, gate, ctx):
        for a, b, expected in TRUTH_TABLES[gate]:
            out = ctx.gate(gate, ctx.encrypt(a), ctx.encrypt(b))
            assert ctx.decrypt(out) == expected, (gate, a, b)

    def test_unknown_gate_rejected(self, ctx):
        with pytest.raises(ValueError):
            ctx.gate("nope", ctx.encrypt(0), ctx.encrypt(0))

    def test_not_is_linear(self, ctx):
        assert ctx.decrypt(ctx.lwe_not(ctx.encrypt(0))) == 1
        assert ctx.decrypt(ctx.lwe_not(ctx.encrypt(1))) == 0

    def test_gate_output_composes_into_next_gate(self, ctx):
        # full adder carry: maj(a,b,c) built from gates
        a, b, c = ctx.encrypt(1), ctx.encrypt(0), ctx.encrypt(1)
        ab = ctx.gate("and", a, b)
        ac = ctx.gate("and", a, c)
        bc = ctx.gate("and", b, c)
        carry = ctx.gate("or", ctx.gate("or", ab, ac), bc)
        assert ctx.decrypt(carry) == 1


class TestLutEvaluation:
    def test_callable_lut(self, ctx):
        out = ctx.apply_lut(ctx.encrypt(3), lambda x: (x + 1) % 4)
        assert ctx.decrypt(out) == 0

    def test_sequence_lut(self, ctx):
        out = ctx.apply_lut(ctx.encrypt(2), [3, 2, 1, 0])
        assert ctx.decrypt(out) == 1

    def test_bootstrap_identity(self, ctx):
        for m in range(4):
            assert ctx.decrypt(ctx.bootstrap(ctx.encrypt(m))) == m


class TestSignedOps:
    @pytest.mark.parametrize("v", [-2, -1, 0, 1])
    def test_signed_roundtrip(self, ctx, v):
        assert ctx.decrypt_signed(ctx.encrypt_signed(v)) == v

    def test_out_of_range_rejected(self, ctx):
        with pytest.raises(ValueError):
            ctx.encrypt_signed(2)  # p=8 -> range [-2, 2)
        with pytest.raises(ValueError):
            ctx.encrypt_signed(-3)

    @pytest.mark.parametrize("v,expected", [(-2, 0), (-1, 0), (0, 0), (1, 1)])
    def test_relu(self, ctx, v, expected):
        out = ctx.relu_signed(ctx.encrypt_signed(v))
        assert ctx.decrypt_signed(out) == expected

    @pytest.mark.parametrize("v,t,expected", [(-2, 0, 0), (1, 0, 1), (0, 0, 1), (1, 1, 1), (0, 1, 0)])
    def test_compare_ge(self, ctx, v, t, expected):
        bit = ctx.compare_ge(ctx.encrypt_signed(v), t)
        assert ctx.decrypt(bit, 8) == expected

    def test_comparison_bit_feeds_gates(self, ctx):
        bit1 = ctx.compare_ge(ctx.encrypt_signed(1), 0)  # 1
        bit2 = ctx.compare_ge(ctx.encrypt_signed(-1), 0)  # 0
        assert ctx.decrypt(ctx.gate("xor", bit1, bit2)) == 1


class TestMessageValidation:
    def test_message_must_respect_padding(self, ctx):
        with pytest.raises(ValueError):
            ctx.encrypt(4)  # p=8 -> messages < 4
        with pytest.raises(ValueError):
            ctx.encrypt(-1)


class TestSeededContexts:
    """One seed reproduces the keys and every ciphertext encrypted after them."""

    MESSAGES = (0, 3, 1, 1, 2)

    @classmethod
    def _encryptions(cls, ctx):
        cts = [ctx.encrypt(m) for m in cls.MESSAGES]
        return b"".join(ct.a.tobytes() + np.uint32(ct.b).tobytes() for ct in cts)

    def test_one_seed_gives_byte_equal_encryptions(self):
        first = TfheContext.create(TEST_PARAMS, seed=11)
        second = TfheContext.create(TEST_PARAMS, seed=11)
        other = TfheContext.create(TEST_PARAMS, seed=12)
        ours = self._encryptions(first)
        assert ours == self._encryptions(second)
        assert ours != self._encryptions(other)
        for m, ct in zip(self.MESSAGES, [first.encrypt(m) for m in self.MESSAGES]):
            assert first.decrypt(ct) == m

    def test_a_context_around_a_keyset_draws_fresh_entropy(self, ctx):
        direct = [TfheContext(ctx.keyset) for _ in range(2)]
        assert self._encryptions(direct[0]) != self._encryptions(direct[1])
