"""Shared scenario behind the keys golden test.

The golden file pins what ``generate_keyset(params, default_rng(7))``
produces on the toy set and on set I, one sha256 per component (dtype,
shape and bytes): LWE key bits, GLWE key polynomials, the BSK rows in
GGSW order (recovered from the table), KSK masks and bodies, and the
``"double"`` spectrum table.  It was recorded on the commit *before* keygen and the BSK
pre-transform became block-streamed (ISSUE 15), so a match proves the
streamed code consumes the RNG in the same order and computes the same
words.  The integer digests are platform-independent; the table digest
is float data from ``numpy.fft`` and is only compared on the ``numpy``
backend under the numpy version that recorded it.  A deliberate change
to the key format or the draw order regenerates the file with
``PYTHONPATH=src python tests/tfhe/_keys_golden.py``.
"""

import hashlib
import json
import os

import numpy as np

GOLDEN_DOC = os.path.join(os.path.dirname(__file__), "golden", "keys_digest.json")
SEED = 7
PARAM_SET_NAMES = ("test", "I")


def _digest(arrays):
    """sha256 over same-shaped arrays in order (dtype, shape, count, bytes)."""
    arrays = list(arrays)
    first = arrays[0]
    sha = hashlib.sha256(f"{first.dtype.str}{first.shape}x{len(arrays)}".encode())
    for array in arrays:
        assert array.dtype == first.dtype and array.shape == first.shape
        sha.update(np.ascontiguousarray(array).data)
    return sha.hexdigest()


def keyset_digests(keyset):
    return {
        "lwe_key_bits": _digest([keyset.lwe_key.bits]),
        "glwe_key_polys": _digest([keyset.glwe_key.polys]),
        # Recovered from the table, the only form a keyset holds the BSK in.
        "bsk_rows": _digest(keyset.bsk_ggsw(i).rows for i in range(keyset.params.n)),
        "ksk_masks": _digest([keyset.ksk.masks]),
        "ksk_bodies": _digest([keyset.ksk.bodies]),
        "bsk_spectrum_table_double": _digest([keyset.bsk_table]),
    }


def build_document():
    from repro.params import get_params
    from repro.tfhe.keys import generate_keyset

    document = {"numpy": np.__version__}
    for name in PARAM_SET_NAMES:
        keyset = generate_keyset(get_params(name), np.random.default_rng(SEED))
        document[name] = keyset_digests(keyset)
    return document


def regenerate():
    os.makedirs(os.path.dirname(GOLDEN_DOC), exist_ok=True)
    with open(GOLDEN_DOC, "w") as fh:
        json.dump(build_document(), fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    regenerate()
