"""Serialization of keys and ciphertexts (numpy ``.npz`` containers).

A production TFHE deployment separates the client (holds secret keys,
encrypts/decrypts) from the server (holds only evaluation keys, runs
bootstraps).  These helpers persist each artifact so the two halves can
live in different processes:

- :func:`save_keyset` / :func:`load_keyset` - the full key material
  (client side; includes secrets);
- :func:`save_evaluation_keys` / :func:`load_evaluation_keys` - only the
  BSK + KSK a server needs (returns a :class:`~repro.tfhe.keys.KeySet`
  whose secret fields are ``None``);
- :func:`save_ciphertext` / :func:`load_ciphertext` for single LWE
  samples.

Formats are plain ``.npz`` archives with a version tag; no pickling.
An archive that cannot be read back - truncated, corrupted, holding the
wrong arrays, or keys over a modulus other than ``2**Q_BITS`` - raises
:class:`ValueError` naming the file, with the underlying error chained
as its cause.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np

from ..params import Q_BITS, TFHEParams
from .glwe import GlweSecretKey
from .keys import KeySet, KeySwitchingKey, transform_bsk
from .lwe import LweCiphertext, LweSecretKey
from .torus import TORUS_DTYPE

__all__ = [
    "FORMAT_VERSION",
    "save_keyset",
    "load_keyset",
    "save_evaluation_keys",
    "load_evaluation_keys",
    "save_ciphertext",
    "load_ciphertext",
]

FORMAT_VERSION = 1


def _params_record(params: TFHEParams) -> np.ndarray:
    # Format 1 keeps a modulus-width slot; it always holds Q_BITS.
    return np.array([
        params.N, params.n, params.k, params.l_b, params.lam,
        Q_BITS, params.beta_bits, params.l_k, params.beta_ks_bits,
    ], dtype=np.int64)


def _params_from_record(record: np.ndarray, name: str) -> TFHEParams:
    N, n, k, l_b, lam, q_bits, beta_bits, l_k, beta_ks_bits = (int(x) for x in record)
    if q_bits != Q_BITS:
        raise ValueError(f"params record holds q = 2**{q_bits}; keys are over 2**{Q_BITS} only")
    return TFHEParams(name, N=N, n=n, k=k, l_b=l_b, lam=lam,
                      beta_bits=beta_bits, l_k=l_k, beta_ks_bits=beta_ks_bits)


def _common_arrays(keyset: KeySet) -> dict:
    return {
        "version": np.array([FORMAT_VERSION]),
        "params": _params_record(keyset.params),
        "params_name": np.array([keyset.params.name]),
        # Format 1 keeps coefficient rows, recovered exactly from the table.
        "bsk_rows": np.stack([keyset.bsk_ggsw(i).rows for i in range(keyset.params.n)]),
        "ksk_masks": keyset.ksk.masks,
        "ksk_bodies": keyset.ksk.bodies,
    }


@contextmanager
def _archive(path) -> Iterator[np.lib.npyio.NpzFile]:
    """Open ``path``; any failure to read it back is a ``ValueError``."""
    try:
        with np.load(path, allow_pickle=False) as data:
            yield data
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise ValueError(f"{path}: {type(exc).__name__}: {exc}") from exc


def _check_version(data) -> None:
    version = int(data["version"][0])
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version}")


def _rebuild_keys(data, with_secrets: bool) -> KeySet:
    params = _params_from_record(data["params"], str(data["params_name"][0]))
    rows = data["bsk_rows"]
    # Refused here, against the archive's own params, not at the first bootstrap.
    expected = (params.n, (params.k + 1) * params.l_b, params.k + 1, params.N)
    if rows.shape != expected:
        raise ValueError(f"bsk_rows shape {rows.shape} != expected {expected} (params record)")
    if rows.dtype != TORUS_DTYPE:
        raise ValueError(f"bsk_rows dtype {rows.dtype} != expected {np.dtype(TORUS_DTYPE)}")
    ksk = KeySwitchingKey(data["ksk_masks"], data["ksk_bodies"], params.beta_ks_bits)
    if with_secrets:
        lwe_key = LweSecretKey(data["lwe_key"])
        glwe_key = GlweSecretKey(data["glwe_key"])
    else:
        lwe_key = None
        glwe_key = None
    return KeySet(params, lwe_key, glwe_key, transform_bsk(params, rows), ksk)


def save_keyset(path, keyset: KeySet) -> None:
    """Persist the full keyset, secrets included (client side)."""
    if keyset.lwe_key is None or keyset.glwe_key is None:
        raise ValueError("keyset has no secret keys; use save_evaluation_keys")
    arrays = _common_arrays(keyset)
    arrays["lwe_key"] = keyset.lwe_key.bits
    arrays["glwe_key"] = keyset.glwe_key.polys
    np.savez_compressed(path, **arrays)


def load_keyset(path) -> KeySet:
    """Load a full keyset saved by :func:`save_keyset`."""
    with _archive(path) as data:
        _check_version(data)
        if "lwe_key" not in data:
            raise ValueError("archive holds evaluation keys only")
        return _rebuild_keys(data, with_secrets=True)


def save_evaluation_keys(path, keyset: KeySet) -> None:
    """Persist only what a server needs: BSK + KSK (no secrets)."""
    np.savez_compressed(path, **_common_arrays(keyset))


def load_evaluation_keys(path) -> KeySet:
    """Load server-side keys; the secret fields are ``None``."""
    with _archive(path) as data:
        _check_version(data)
        return _rebuild_keys(data, with_secrets=False)


def save_ciphertext(path, ct: LweCiphertext) -> None:
    """Persist one LWE ciphertext."""
    np.savez_compressed(
        path, version=np.array([FORMAT_VERSION]), a=ct.a, b=np.array([ct.b])
    )


def load_ciphertext(path) -> LweCiphertext:
    """Load one LWE ciphertext."""
    with _archive(path) as data:
        _check_version(data)
        return LweCiphertext(data["a"], data["b"][0])
