"""Tests for key/ciphertext serialization."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.params import TEST_PARAMS, TFHEParams
from repro.tfhe.serialization import (
    load_ciphertext,
    load_evaluation_keys,
    load_keyset,
    save_ciphertext,
    save_evaluation_keys,
    save_keyset,
)
from repro.tfhe import identity_test_polynomial, programmable_bootstrap
from repro.tfhe.lwe import lwe_decrypt_phase
from repro.tfhe.torus import decode_message

P = 8


class TestKeysetRoundtrip:
    def test_full_keyset(self, ctx, tmp_path):
        path = tmp_path / "keys.npz"
        save_keyset(path, ctx.keyset)
        loaded = load_keyset(path)
        np.testing.assert_array_equal(loaded.lwe_key.bits, ctx.keyset.lwe_key.bits)
        np.testing.assert_array_equal(loaded.glwe_key.polys, ctx.keyset.glwe_key.polys)
        assert loaded.params.N == ctx.params.N
        np.testing.assert_array_equal(loaded.bsk_table, ctx.keyset.bsk_table)

    def test_loaded_keys_bootstrap_correctly(self, ctx, tmp_path):
        """The round-tripped keyset must still run real bootstraps."""
        path = tmp_path / "keys.npz"
        save_keyset(path, ctx.keyset)
        loaded = load_keyset(path)
        ct = ctx.encrypt(2, P)
        tp = identity_test_polynomial(loaded.params, P)
        out = programmable_bootstrap(ct, tp, loaded)
        phase = lwe_decrypt_phase(out, loaded.lwe_key)
        assert decode_message(np.asarray(phase), P)[()] == 2

    def test_evaluation_keys_have_no_secrets(self, ctx, tmp_path):
        path = tmp_path / "eval.npz"
        save_evaluation_keys(path, ctx.keyset)
        loaded = load_evaluation_keys(path)
        assert loaded.lwe_key is None
        assert loaded.glwe_key is None
        np.testing.assert_array_equal(loaded.bsk_table, ctx.keyset.bsk_table)

    def test_evaluation_keys_still_bootstrap(self, ctx, tmp_path):
        """Server-side keys suffice for evaluation (decryption is client-side)."""
        path = tmp_path / "eval.npz"
        save_evaluation_keys(path, ctx.keyset)
        server = load_evaluation_keys(path)
        ct = ctx.encrypt(1, P)
        tp = identity_test_polynomial(server.params, P)
        out = programmable_bootstrap(ct, tp, server)
        # Client decrypts with its own secret key.
        assert ctx.decrypt(out, P) == 1

    def test_loading_eval_archive_as_keyset_fails(self, ctx, tmp_path):
        path = tmp_path / "eval.npz"
        save_evaluation_keys(path, ctx.keyset)
        with pytest.raises(ValueError):
            load_keyset(path)

    def test_saving_secretless_keyset_fails(self, ctx, tmp_path):
        from repro.tfhe.keys import KeySet

        stripped = KeySet(ctx.params, None, None, ctx.keyset.bsk_table, ctx.keyset.ksk)
        with pytest.raises(ValueError):
            save_keyset(tmp_path / "x.npz", stripped)


class TestTamperedArchives:
    """A malformed BSK is refused at load, naming what the params record
    expects, instead of failing inside the first bootstrap."""

    def _tampered(self, ctx, tmp_path, edit):
        save_evaluation_keys(tmp_path / "eval.npz", ctx.keyset)
        with np.load(tmp_path / "eval.npz") as data:
            arrays = dict(data)
        arrays["bsk_rows"] = edit(arrays["bsk_rows"])
        np.savez(tmp_path / "bad.npz", **arrays)
        return tmp_path / "bad.npz"

    def test_one_ggsw_short(self, ctx, tmp_path):
        path = self._tampered(ctx, tmp_path, lambda rows: rows[:-1])
        p = ctx.params
        with pytest.raises(ValueError, match=rf"bsk_rows shape \({p.n - 1}, .* \({p.n}, "):
            load_evaluation_keys(path)

    def test_polynomial_size_halved(self, ctx, tmp_path):
        n_poly = ctx.params.N
        path = self._tampered(ctx, tmp_path, lambda rows: rows[..., : n_poly // 2])
        with pytest.raises(ValueError, match=rf"{n_poly // 2}\) != expected .*{n_poly}\)"):
            load_evaluation_keys(path)

    def test_wrong_level_count(self, ctx, tmp_path):
        kp1 = ctx.params.k + 1
        path = self._tampered(ctx, tmp_path, lambda rows: rows[:, :-kp1])  # one level short
        with pytest.raises(ValueError, match="bsk_rows shape"):
            load_evaluation_keys(path)

    def test_wrong_word_size(self, ctx, tmp_path):
        path = self._tampered(ctx, tmp_path, lambda rows: rows.astype(np.int64))
        with pytest.raises(ValueError, match="bsk_rows dtype int64 != expected uint32"):
            load_evaluation_keys(path)


class TestCiphertextRoundtrip:
    def test_ciphertext(self, ctx, tmp_path):
        path = tmp_path / "ct.npz"
        ct = ctx.encrypt(3, P)
        save_ciphertext(path, ct)
        loaded = load_ciphertext(path)
        np.testing.assert_array_equal(loaded.a, ct.a)
        assert loaded.b == ct.b
        assert ctx.decrypt(loaded, P) == 3


def _corruptions(size):
    """A truncation, or one to three single-byte edits, of a ``size``-byte blob."""
    truncate = st.builds(lambda n: ("truncate", n), st.integers(0, size - 1))
    edits = st.lists(st.tuples(st.integers(0, size - 1), st.integers(1, 255)),
                     min_size=1, max_size=3).map(lambda e: ("edit", e))
    return st.one_of(truncate, edits)


def _corrupt(blob, corruption):
    kind, arg = corruption
    if kind == "truncate":
        return blob[:arg]
    data = bytearray(blob)
    for pos, delta in arg:
        data[pos] = (data[pos] + delta) % 256
    return bytes(data)


def _same_keys(a, b):
    return (a.params.name == b.params.name
            and a.params.N == b.params.N and a.params.n == b.params.n
            and np.array_equal(a.lwe_key.bits, b.lwe_key.bits)
            and np.array_equal(a.glwe_key.polys, b.glwe_key.polys)
            and np.array_equal(a.bsk_table, b.bsk_table)
            and np.array_equal(a.ksk.masks, b.ksk.masks)
            and np.array_equal(a.ksk.bodies, b.ksk.bodies))


class TestCorruptedArchives:
    """Any corruption ends in ``ValueError`` or in the keyset that was saved,
    never in a zip/zlib error or a different keyset."""

    @pytest.fixture(scope="class")
    def blob(self, ctx):
        buf = io.BytesIO()
        save_keyset(buf, ctx.keyset)
        return buf.getvalue()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_corrupted_keyset_is_refused_or_equal(self, ctx, blob, data):
        corrupted = _corrupt(blob, data.draw(_corruptions(len(blob))))
        try:
            loaded = load_keyset(io.BytesIO(corrupted))
        except ValueError:
            return
        assert _same_keys(loaded, ctx.keyset)

    def test_error_names_the_file_and_chains_the_cause(self, ctx, tmp_path):
        path = tmp_path / "keys.npz"
        save_keyset(path, ctx.keyset)
        path.write_bytes(path.read_bytes()[:1000])
        for load in (load_keyset, load_evaluation_keys, load_ciphertext):
            with pytest.raises(ValueError, match="keys.npz") as info:
                load(path)
            assert info.value.__cause__ is not None


class TestModulusWidth:
    """q = 2**32 is not a parameter.  A q_bits knob used to decrypt wrong
    at any other width: on the toy set, bootstraps of 0..3 decoded as
    scrambled values at 24 bits and as all zeros at 40."""

    def test_params_take_no_modulus_width(self):
        with pytest.raises(TypeError):
            TFHEParams("q24", N=256, n=16, k=1, l_b=3, lam=0, q_bits=24)
        with pytest.raises(TypeError):
            TEST_PARAMS.with_overrides(q_bits=24)
        p = TEST_PARAMS
        assert (p.q_bits, p.q, p.coeff_bytes) == (32, 1 << 32, 4)

    def test_archive_records_32(self, ctx, tmp_path):
        save_evaluation_keys(tmp_path / "eval.npz", ctx.keyset)
        with np.load(tmp_path / "eval.npz") as data:
            assert int(data["params"][5]) == 32

    @pytest.mark.parametrize("q_bits", [24, 40])
    def test_archive_over_another_modulus_is_refused(self, ctx, tmp_path, q_bits):
        save_keyset(tmp_path / "keys.npz", ctx.keyset)
        with np.load(tmp_path / "keys.npz") as data:
            arrays = dict(data)
        arrays["params"][5] = q_bits
        np.savez(tmp_path / "other_q.npz", **arrays)
        for load in (load_keyset, load_evaluation_keys):
            with pytest.raises(ValueError, match=rf"other_q\.npz: .*q = 2\*\*{q_bits}"):
                load(tmp_path / "other_q.npz")
