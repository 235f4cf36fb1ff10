"""Compute backends: selection, errors, and the numpy engine against the radix2 oracle."""

import numpy as np
import pytest

import sys

import repro.transforms.fft  # noqa: F401  (registers the submodule)
from repro.tfhe.bootstrap import programmable_bootstrap_batch

# The transforms package re-exports fft() the function, shadowing the
# submodule attribute - go through sys.modules for the module itself.
fft_mod = sys.modules["repro.transforms.fft"]
from repro.transforms.backends import (
    BACKEND_ENV_VAR,
    NumpyBackend,
    Radix2Backend,
    active_backend,
    active_backend_name,
    available_backends,
    get_backend,
    reset_backend,
    set_backend,
    use_backend,
)


@pytest.fixture(autouse=True)
def _restore_backend():
    yield
    reset_backend()


class TestRegistry:
    def test_numpy_always_registered_and_available(self):
        assert available_backends() == ["numpy", "radix2"]

    def test_unknown_backend_lists_available(self):
        with pytest.raises(ValueError) as info:
            get_backend("fftpack9000")
        message = str(info.value)
        assert "fftpack9000" in message
        assert "available backends" in message
        assert "numpy" in message

    def test_radix2_oracle_always_listed(self):
        """The butterfly engine stays selectable by name now that it is no
        longer the default, and the unknown-backend hint offers it."""
        assert isinstance(get_backend("radix2"), Radix2Backend)
        with pytest.raises(ValueError, match="radix2"):
            get_backend("fftpack9000")

    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        reset_backend()
        assert active_backend_name() == "numpy"
        assert isinstance(active_backend(), NumpyBackend)

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "radix2")
        reset_backend()
        assert active_backend_name() == "radix2"

    def test_env_var_unknown_backend_fails(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "nope")
        reset_backend()
        with pytest.raises(ValueError, match="nope"):
            active_backend()

    def test_set_backend_overrides_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "radix2")
        set_backend("numpy")
        assert active_backend_name() == "numpy"

    def test_use_backend_restores_previous(self):
        set_backend("numpy")
        with use_backend("radix2"):
            assert active_backend_name() == "radix2"
        assert active_backend_name() == "numpy"

    def test_use_backend_none_keeps_current(self):
        set_backend("radix2")
        with use_backend(None):
            assert active_backend_name() == "radix2"


class TestDtypeContract:
    """``complex128`` in means ``complex128`` out, on both engines."""

    @pytest.mark.parametrize("name", ["numpy", "radix2"])
    @pytest.mark.parametrize("dtype", [np.complex128])
    def test_dtype_preserved(self, name, dtype, rng):
        x = (rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))).astype(dtype)
        backend = get_backend(name)
        assert backend.fft(x).dtype == dtype
        assert backend.ifft(x).dtype == dtype


class TestRadix2Oracle:
    """The production engine is certified against the in-repo butterflies."""

    @pytest.mark.parametrize("n", [2, 8, 64, 512, 1024])
    def test_numpy_engine_matches_the_oracle(self, n, rng):
        x = rng.standard_normal((2, 3, n)) + 1j * rng.standard_normal((2, 3, n))
        with use_backend("radix2"):
            ref_fwd, ref_inv = fft_mod.fft(x), fft_mod.ifft(x)
        with use_backend("numpy"):
            got_fwd, got_inv = fft_mod.fft(x), fft_mod.ifft(x)
        np.testing.assert_allclose(got_fwd, ref_fwd, rtol=1e-12, atol=1e-12 * n)
        np.testing.assert_allclose(got_inv, ref_inv, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("name", ["numpy", "radix2"])
    def test_output_is_c_contiguous_and_input_untouched(self, name, rng):
        x = rng.standard_normal((4, 2, 64)) + 0j
        saved = x.copy()
        with use_backend(name):
            out = fft_mod.fft(x)
        assert out.flags.c_contiguous
        np.testing.assert_array_equal(x, saved)


class TestCounters:
    """Telemetry names the engine and counts it the same way on both."""

    def test_backend_name_stamped_in_request_events(self, ctx):
        from repro import observability as obs

        cts = [ctx.encrypt(1, 8)]
        tp = ctx._lut_test_poly(lambda x: x, 8)
        with use_backend("radix2"), obs.telemetry():
            events = []
            obs.BUS.subscribe(events.append)
            try:
                programmable_bootstrap_batch(cts, tp, ctx.keyset)
            finally:
                obs.BUS.unsubscribe(events.append)
        requests = [e for e in events if e.kind == "request"]
        assert requests
        assert all(e.fields.get("backend") == "radix2" for e in requests)

    def test_fft_counted_identically_across_backends(self, rng):
        from repro import observability as obs

        x = rng.standard_normal((4, 32)) + 0j
        counts = {}
        for name in ("numpy", "radix2"):
            with use_backend(name), obs.telemetry() as (registry, _tracer):
                fft_mod.ifft(fft_mod.fft(x))
                counter = registry.get("transforms_fft_total")
                counts[name] = (
                    counter.value(direction="forward"),
                    counter.value(direction="inverse"),
                )
        assert counts["numpy"] == counts["radix2"]
        assert counts["numpy"][0] > 0
