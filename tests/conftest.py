"""Shared fixtures: key material is expensive, so contexts are session-scoped."""

import numpy as np
import pytest

from repro import TEST_PARAMS, TfheContext


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def ctx():
    """A TFHE context on the fast test parameter set (fixed seed)."""
    return TfheContext.create(TEST_PARAMS, seed=7)


@pytest.fixture(scope="session")
def keyset(ctx):
    return ctx.keyset

