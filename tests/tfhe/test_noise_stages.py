"""Per-stage noise check: measured std against the variance model.

Random messages run through the batch kernel's stages - modulus switch,
blind rotation, sample extraction, key switching - and each stage's
output phase error is measured with the secret keys:

- the bootstrap output (after key switching) must read within 25 % of
  ``bootstrap_output_noise_std_log2``;
- the blind-rotation output (sample-extracted, before key switching)
  must not read more than 25 % over ``blind_rotation_noise_variance``.
  It reads about 0.57: ``external_product_noise_variance`` charges
  ``(beta/2)**2`` per digit where a uniform digit has variance
  ``(beta/2)**2 / 3``, and ``1/sqrt(3) = 0.577``.

Tier-1 runs the toy set at 512 samples and set I at 64; the nightly
variant runs sets I and III at 2 048.
"""

import numpy as np
import pytest

from repro import TEST_PARAMS, get_params
from repro.tfhe import identity_test_polynomial
from repro.tfhe.bootstrap import blind_rotate_batch, key_switch_batch
from repro.tfhe.glwe import sample_extract_batch
from repro.tfhe.keys import generate_keyset
from repro.tfhe.lwe import gaussian_torus_noise
from repro.tfhe.noise import blind_rotation_noise_variance, bootstrap_output_noise_std_log2
from repro.tfhe.torus import (
    TORUS_DTYPE,
    encode_message,
    modswitch,
    to_signed,
    to_torus,
    torus_dot,
)

P = 8
#: Measured / predicted std must stay inside this band.
LOW, HIGH = 0.75, 1.25


def _errors(a, b, key_bits, expected):
    """Centered phase errors (torus units) of LWE rows ``(a, b)``."""
    phase = (b - torus_dot(a, key_bits[None, :])).astype(np.int64)
    return to_signed(to_torus(phase - expected)) / 2.0 ** 32


def stage_std_ratios(params, samples, chunk=32):
    """Measured / predicted std at the blind-rotation and bootstrap outputs."""
    keyset = generate_keyset(params, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    tp = identity_test_polynomial(params, P)
    extracted_key = keyset.glwe_key.extracted_lwe_bits()
    br, ks = [], []
    for start in range(0, samples, chunk):
        msgs = rng.integers(0, P // 2, min(chunk, samples - start))
        a = rng.integers(0, 2**32, (msgs.size, params.n), dtype=np.uint64).astype(TORUS_DTYPE)
        e = gaussian_torus_noise(rng, params.lwe_noise_log2, shape=msgs.shape)
        b = (torus_dot(a, keyset.lwe_key.bits[None, :]) + encode_message(msgs, P) + e
             ).astype(TORUS_DTYPE)
        acc = blind_rotate_batch(modswitch(a, 2 * params.N), modswitch(b, 2 * params.N),
                                 tp, keyset)
        ext_a, ext_b = sample_extract_batch(acc)
        out_a, out_b = key_switch_batch(ext_a, ext_b, keyset.ksk)
        expected = encode_message(msgs, P).astype(np.int64)
        br.append(_errors(ext_a, ext_b, extracted_key, expected))
        ks.append(_errors(out_a, out_b, keyset.lwe_key.bits, expected))
    br_std = float(np.sqrt(np.mean(np.concatenate(br) ** 2)))
    ks_std = float(np.sqrt(np.mean(np.concatenate(ks) ** 2)))
    return (br_std / blind_rotation_noise_variance(params) ** 0.5,
            ks_std / 2.0 ** bootstrap_output_noise_std_log2(params))


def _check(params, samples):
    br, ks = stage_std_ratios(params, samples)
    assert LOW <= ks <= HIGH, f"{params.name}: bootstrap output reads {ks:.2f}"
    assert br <= HIGH, f"{params.name}: blind-rotation output reads {br:.2f}"


@pytest.mark.parametrize("params, samples", [(TEST_PARAMS, 512), (get_params("I"), 64)],
                         ids=["test", "I"])
def test_stage_noise_matches_the_model(params, samples):
    _check(params, samples)


@pytest.mark.nightly
@pytest.mark.parametrize("name", ["I", "III"])
def test_stage_noise_matches_the_model_at_scale(name):
    _check(get_params(name), 2048)
