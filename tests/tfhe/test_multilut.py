"""Tests for multi-LUT bootstrapping."""

import pytest

from repro import TEST_PARAMS, get_params
from repro.tfhe.multilut import (
    make_multi_test_polynomial,
    max_luts_for_params,
    multi_lut_bootstrap,
)

P = 8


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

    @pytest.mark.parametrize("name, luts", [
        ("test", 6), ("I", 2), ("II", 2), ("III", 1), ("IV", 0),
    ])
    def test_sizing_under_the_decode_budget(self, name, luts):
        # The last table count whose per-decision tail meets 2^-20; set IV
        # misses it with one table.
        assert max_luts_for_params(get_params(name), 8) == luts
