"""The transform engine: pocketfft's gufuncs against ``np.fft`` and the radix-2 oracle."""

import numpy as np
import pytest

from repro.transforms import negacyclic
from repro.transforms.negacyclic import negacyclic_fft, negacyclic_ifft_folded

from . import _radix2
from ._radix2 import ENGINES, transform_engine


class TestDtypeContract:
    """``complex128`` in means ``complex128`` out, on both engines."""

    @pytest.mark.parametrize("name", ["numpy", "radix2"])
    @pytest.mark.parametrize("dtype", [np.complex128])
    def test_dtype_preserved(self, name, dtype, rng):
        x = (rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))).astype(dtype)
        with transform_engine(name):
            assert negacyclic._fft(x).dtype == dtype
            assert negacyclic._ifft(x).dtype == dtype


def _library_transform_shapes():
    """Every shape the library transforms: ``(B, k+1, l_b, N/2)`` digit
    spectra and ``(B, k+1, N/2)`` accumulator spectra, per set and batch."""
    from repro.params import get_params

    for name in ("test", "I", "II", "III", "C"):
        p = get_params(name)
        for batch in (1, 8):
            yield f"{name}-b{batch}-digits", (batch, p.k + 1, p.l_b, p.N // 2)
            yield f"{name}-b{batch}-acc", (batch, p.k + 1, p.N // 2)


class TestNumpyEngineIsNumpyFft:
    """The production engine calls pocketfft's gufunc directly; its spectra
    are ``np.fft.fft`` / ``ifft``'s bit for bit, at every library shape."""

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize(
        "shape", [s for _, s in _library_transform_shapes()],
        ids=[i for i, _ in _library_transform_shapes()],
    )
    def test_bit_identical_to_np_fft(self, shape, dtype, rng):
        x = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)
        saved = x.copy()
        fwd, inv = negacyclic._fft(x), negacyclic._ifft(x)
        np.testing.assert_array_equal(x, saved)
        for got, want in ((fwd, np.fft.fft(x)), (inv, np.fft.ifft(x))):
            assert got.dtype == want.dtype == dtype
            assert got.flags.c_contiguous
            assert np.array_equal(got, want)


class TestRadix2Oracle:
    """The production engine is certified against the in-repo butterflies."""

    @pytest.mark.parametrize("n", [2, 8, 64, 512, 1024])
    def test_numpy_engine_matches_the_oracle(self, n, rng):
        x = rng.standard_normal((2, 3, n)) + 1j * rng.standard_normal((2, 3, n))
        ref_fwd, ref_inv = _radix2.fft(x), _radix2.ifft(x)
        got_fwd, got_inv = negacyclic._fft(x), negacyclic._ifft(x)
        np.testing.assert_allclose(got_fwd, ref_fwd, rtol=1e-12, atol=1e-12 * n)
        np.testing.assert_allclose(got_inv, ref_inv, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("name", ["numpy", "radix2"])
    def test_output_is_c_contiguous_and_input_untouched(self, name, rng):
        x = rng.standard_normal((4, 2, 64)) + 0j
        saved = x.copy()
        with transform_engine(name):
            out = negacyclic._fft(x)
        assert out.flags.c_contiguous
        np.testing.assert_array_equal(x, saved)

    def test_the_engine_swap_is_undone(self):
        bound = negacyclic._fft, negacyclic._ifft
        with pytest.raises(RuntimeError):
            with transform_engine("radix2"):
                assert negacyclic._fft is _radix2.fft
                raise RuntimeError
        assert (negacyclic._fft, negacyclic._ifft) == bound


class TestCounters:
    """Transforms are counted at the negacyclic boundary, the same on both engines."""

    def test_fft_counted_identically_across_backends(self, rng):
        from repro import observability as obs

        x = rng.standard_normal((4, 64))
        counts = {}
        for name in ENGINES:
            with transform_engine(name), obs.telemetry() as (registry, _tracer):
                negacyclic_ifft_folded(negacyclic_fft(x), 64)
                counter = registry.get("transforms_fft_total")
                counts[name] = (
                    counter.value(direction="forward"),
                    counter.value(direction="inverse"),
                )
        assert counts["numpy"] == counts["radix2"] == (4, 4)
