"""Shared-memory BSK spectrum table: publish/attach/install lifecycle."""

import pickle

import numpy as np
import pytest

from repro.pool.shm import (
    SEGMENT_PREFIX,
    SharedSpectrumTable,
    SpectrumHandle,
    leaked_segments,
)


class TestPublishAttach:
    def test_round_trip_equality(self, keyset):
        table = keyset.bsk_spectrum_table("double")
        with SharedSpectrumTable.publish(keyset, "double") as shared:
            attached = SharedSpectrumTable.attach(shared.handle)
            np.testing.assert_array_equal(attached.array, table)
            attached.close()
        assert leaked_segments() == []

    def test_attached_view_is_read_only(self, keyset):
        with SharedSpectrumTable.publish(keyset, "double") as shared:
            attached = SharedSpectrumTable.attach(shared.handle)
            with pytest.raises((ValueError, RuntimeError)):
                attached.array[0, 0, 0, 0] = 0
            attached.close()

    def test_handle_is_picklable(self, keyset):
        with SharedSpectrumTable.publish(keyset, "double") as shared:
            handle = pickle.loads(pickle.dumps(shared.handle))
            assert handle == shared.handle
            assert handle.nbytes == keyset.bsk_spectrum_table("double").nbytes

    def test_segment_name_carries_prefix(self, keyset):
        with SharedSpectrumTable.publish(keyset, "double") as shared:
            assert shared.handle.name.startswith(SEGMENT_PREFIX)
            assert leaked_segments() == [shared.handle.name]
        assert leaked_segments() == []

    def test_install_adopts_into_cache(self, keyset):
        original = keyset.bsk_spectrum_table("double")
        with SharedSpectrumTable.publish(keyset, "double") as shared:
            attached = SharedSpectrumTable.attach(shared.handle)
            adopted = attached.install(keyset)
            try:
                assert keyset.bsk_spectrum_table("double") is adopted
                assert adopted is attached.array
            finally:
                attached.close(keyset)  # hands the keyset a private copy back
        private = keyset.bsk_spectrum_table("double")
        assert private is not adopted and private is not original
        assert private.flags.writeable and private.flags.c_contiguous
        np.testing.assert_array_equal(private, original)

    def test_unlink_idempotent_and_attach_fails_after(self, keyset):
        shared = SharedSpectrumTable.publish(keyset, "double")
        handle = shared.handle
        shared.unlink()
        shared.unlink()
        with pytest.raises(FileNotFoundError):
            SharedSpectrumTable.attach(handle)
        shared.close()
        assert leaked_segments() == []


class TestAdoptValidation:
    def test_wrong_shape_rejected(self, keyset):
        with pytest.raises(ValueError, match="shape"):
            keyset.adopt_spectrum_table(np.zeros((2, 2), dtype=np.complex128))

    def test_wrong_dtype_rejected(self, keyset):
        p = keyset.params
        shape = (p.n, (p.k + 1) * p.l_b, p.k + 1, p.N // 2)
        with pytest.raises(ValueError, match="dtype"):
            keyset.adopt_spectrum_table(np.zeros(shape, dtype=np.complex64))

    def test_unknown_precision_rejected(self, keyset):
        with pytest.raises(ValueError, match="precision"):
            keyset.adopt_spectrum_table(
                np.zeros((1,), dtype=np.complex128), precision="half"
            )


class TestSpectrumHandle:
    def test_nbytes(self):
        handle = SpectrumHandle(
            name="x", shape=(2, 3, 4), dtype="<c16", precision="double"
        )
        assert handle.nbytes == 2 * 3 * 4 * 16
