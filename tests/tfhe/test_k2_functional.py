"""Functional tests on the k=2 parameter set.

The paper's contribution scales with ``k`` (more reuse at k=2,3); these
tests prove the *functional* stack - scheme, bootstrap engines and
gates - stays correct when the GLWE dimension grows beyond the k=1 the
prior accelerators were optimized for (the batched pipeline at k=2 is
``test_batch_bootstrap.py::test_batch_matches_scalar_k2``).
"""

import numpy as np
import pytest

from repro import TEST_PARAMS_K2, TfheContext
from repro.tfhe import identity_test_polynomial, make_test_polynomial, programmable_bootstrap

from ._oracle import reference_bootstrap

P = 8


@pytest.fixture(scope="module")
def ctx_k2():
    return TfheContext.create(TEST_PARAMS_K2, seed=2222)


class TestK2Scheme:
    def test_params_shape(self):
        assert TEST_PARAMS_K2.k == 2
        assert TEST_PARAMS_K2.polymults_per_external_product == 18

    @pytest.mark.parametrize("m", range(4))
    def test_identity_bootstrap(self, ctx_k2, m):
        tp = identity_test_polynomial(ctx_k2.params, P)
        out = programmable_bootstrap(ctx_k2.encrypt(m, P), tp, ctx_k2.keyset)
        assert ctx_k2.decrypt(out, P) == m

    def test_lut_bootstrap(self, ctx_k2):
        lut = np.array([0, 2, 1, 3], dtype=np.int64)
        tp = make_test_polynomial(lut, ctx_k2.params, P)
        out = programmable_bootstrap(ctx_k2.encrypt(1, P), tp, ctx_k2.keyset)
        assert ctx_k2.decrypt(out, P) == 2

    def test_gates_work_at_k2(self, ctx_k2):
        out = ctx_k2.gate("xor", ctx_k2.encrypt(1), ctx_k2.encrypt(1))
        assert ctx_k2.decrypt(out) == 0

    @pytest.mark.parametrize("engine", ["transform", "fft", "exact"])
    def test_engines_agree_at_k2(self, ctx_k2, engine):
        tp = identity_test_polynomial(ctx_k2.params, P)
        out = reference_bootstrap(ctx_k2.encrypt(3, P), tp, ctx_k2.keyset, engine)
        assert ctx_k2.decrypt(out, P) == 3

    def test_sample_extract_dimension(self, ctx_k2):
        """The extracted LWE dimension is k*N = 256."""
        from ._oracle import glwe_trivial, sample_extract

        ct = glwe_trivial(np.zeros(128, np.uint32), 2)
        assert sample_extract(ct, 0).n == 256
