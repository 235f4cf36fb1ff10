"""Compute-backend registry: selection, errors, and cross-backend parity."""

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
    registered_backends,
    reset_backend,
    set_backend,
    use_backend,
)

requires_scipy = pytest.mark.skipif(
    "scipy" not in available_backends(), reason="scipy parity tests need scipy"
)


@pytest.fixture(autouse=True)
def _restore_backend():
    yield
    reset_backend()


class TestRegistry:
    def test_numpy_always_registered_and_available(self):
        assert "numpy" in registered_backends()
        assert "numpy" in available_backends()

    @requires_scipy
    def test_scipy_detected(self):
        assert "scipy" in available_backends()

    def test_pyfftw_registered_even_when_missing(self):
        assert "pyfftw" in registered_backends()

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
        assert "radix2" in registered_backends()
        assert "radix2" in available_backends()
        assert isinstance(get_backend("radix2"), Radix2Backend)
        with pytest.raises(ValueError, match="radix2"):
            get_backend("fftpack9000")

    def test_unavailable_backend_error_names_it(self):
        if "pyfftw" in available_backends():
            pytest.skip("pyfftw importable here; nothing to probe")
        with pytest.raises(ValueError, match="pyfftw"):
            get_backend("pyfftw")

    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        reset_backend()
        assert active_backend_name() == "numpy"
        assert isinstance(active_backend(), NumpyBackend)

    @requires_scipy
    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "scipy")
        reset_backend()
        assert active_backend_name() == "scipy"

    def test_env_var_unknown_backend_fails(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "nope")
        reset_backend()
        with pytest.raises(ValueError, match="nope"):
            active_backend()

    @requires_scipy
    def test_set_backend_overrides_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "scipy")
        set_backend("numpy")
        assert active_backend_name() == "numpy"

    @requires_scipy
    def test_use_backend_restores_previous(self):
        set_backend("numpy")
        with use_backend("scipy"):
            assert active_backend_name() == "scipy"
        assert active_backend_name() == "numpy"

    @requires_scipy
    def test_use_backend_none_keeps_current(self):
        set_backend("scipy")
        with use_backend(None):
            assert active_backend_name() == "scipy"

    @requires_scipy
    def test_describe_names_the_backend(self):
        assert "numpy" in get_backend("numpy").describe()
        assert "scipy" in get_backend("scipy").describe()


class TestDtypeContract:
    """``complex64`` in means ``complex64`` out, on every always-on engine."""

    @pytest.mark.parametrize("name", ["numpy", "radix2"])
    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_dtype_preserved(self, name, dtype, rng):
        x = (rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))).astype(dtype)
        backend = get_backend(name)
        assert backend.fft(x).dtype == dtype
        assert backend.ifft(x).dtype == dtype

    def test_numpy_backend_casts_back_when_numpy_upcasts(self, rng, monkeypatch):
        """numpy < 2 (allowed by pyproject) computes every FFT in complex128."""
        backend = NumpyBackend()
        upcasting = {
            "_np_fft": lambda x, axis: np.fft.fft(x.astype(np.complex128), axis=axis),
            "_np_ifft": lambda x, axis: np.fft.ifft(x.astype(np.complex128), axis=axis),
        }
        for attr, fn in upcasting.items():
            monkeypatch.setattr(backend, attr, fn)
        x = (rng.standard_normal(32) + 1j * rng.standard_normal(32)).astype(np.complex64)
        spec = backend.fft(x)
        assert spec.dtype == np.complex64
        back = backend.ifft(spec)
        assert back.dtype == np.complex64
        np.testing.assert_allclose(back, x, rtol=1e-5, atol=1e-5)


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


@requires_scipy
class TestParity:
    """numpy and scipy must agree: bit-for-bit at complex128 (both are
    exact enough that the negacyclic fold/round digests identically),
    within float tolerance at complex64."""

    @pytest.fixture()
    def spectra(self, rng):
        x = (rng.integers(-(2**31), 2**31, size=(4, 64)).astype(np.complex128)
             + 1j * rng.integers(-(2**31), 2**31, size=(4, 64)))
        return x

    def test_fft_round_trip_complex128(self, spectra):
        with use_backend("numpy"):
            ref = fft_mod.ifft(fft_mod.fft(spectra))
        with use_backend("scipy"):
            got = fft_mod.ifft(fft_mod.fft(spectra))
        # Round-tripped integer payloads are recovered identically.
        np.testing.assert_array_equal(np.rint(ref.real), np.rint(got.real))
        np.testing.assert_array_equal(np.rint(ref.imag), np.rint(got.imag))
        np.testing.assert_allclose(ref, got, rtol=1e-12, atol=1e-6)

    def test_fft_round_trip_complex64(self, spectra):
        x = spectra.astype(np.complex64) / 2**16
        with use_backend("numpy"):
            ref = fft_mod.ifft(fft_mod.fft(x))
        with use_backend("scipy"):
            got = fft_mod.ifft(fft_mod.fft(x))
        np.testing.assert_allclose(ref, got, rtol=1e-4, atol=1e-2)

    def test_forward_transforms_agree(self, spectra):
        with use_backend("numpy"):
            ref = fft_mod.fft(spectra)
        with use_backend("scipy"):
            got = fft_mod.fft(spectra)
        np.testing.assert_allclose(ref, got, rtol=1e-10, atol=1e-3)

    def test_einsum_reduction_is_backend_invariant(self, rng):
        digit = rng.standard_normal((3, 4, 2, 8)) + 0j
        rows = rng.standard_normal((4, 2, 2, 8)) + 0j
        with use_backend("numpy"):
            ref = active_backend().einsum("aijf,ijcf->acf", digit, rows)
        with use_backend("scipy"):
            got = active_backend().einsum("aijf,ijcf->acf", digit, rows)
        np.testing.assert_array_equal(ref, got)

    def test_full_bootstrap_bit_identical(self, ctx):
        msgs = [0, 1, 2, 3]
        cts = [ctx.encrypt(m, 8) for m in msgs]
        tp = ctx._lut_test_poly(lambda x: x, 8)
        with use_backend("numpy"):
            ref = programmable_bootstrap_batch(cts, tp, ctx.keyset)
        with use_backend("scipy"):
            got = programmable_bootstrap_batch(cts, tp, ctx.keyset)
        for r, g in zip(ref, got):
            np.testing.assert_array_equal(r.a, g.a)
            assert r.b == g.b

    def test_backend_name_stamped_in_request_events(self, ctx, tmp_path):
        from repro import observability as obs

        cts = [ctx.encrypt(1, 8)]
        tp = ctx._lut_test_poly(lambda x: x, 8)
        with use_backend("scipy"), obs.telemetry():
            events = []
            obs.BUS.subscribe(events.append)
            try:
                programmable_bootstrap_batch(cts, tp, ctx.keyset)
            finally:
                obs.BUS.unsubscribe(events.append)
        requests = [e for e in events if e.kind == "request"]
        assert requests
        assert all(e.fields.get("backend") == "scipy" for e in requests)


@requires_scipy
class TestCounters:
    def test_fft_counted_identically_across_backends(self, rng):
        from repro import observability as obs

        x = rng.standard_normal((4, 32)) + 0j
        counts = {}
        for name in ("numpy", "scipy"):
            with use_backend(name), obs.telemetry() as (registry, _tracer):
                fft_mod.ifft(fft_mod.fft(x))
                counter = registry.get("transforms_fft_total")
                counts[name] = (
                    counter.value(direction="forward"),
                    counter.value(direction="inverse"),
                )
        assert counts["numpy"] == counts["scipy"]
        assert counts["numpy"][0] > 0
