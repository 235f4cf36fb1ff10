"""TFHE scheme substrate: ciphertexts, keys, and programmable bootstrapping.

A complete functional implementation of the TFHE operations the paper
accelerates (Section II): LWE/GLWE/GGSW ciphertexts over the discretized
torus ``q = 2**32``, gadget decomposition, and the MS -> BR -> SE -> KS
programmable bootstrap.  Each operation is computed one way: the
external product in the transform domain against the pre-transformed
BSK, as Morphling's datapath computes it.  The coefficient-domain
reference engines the kernels are tested against live beside the tests.
"""

from .bootstrap import (
    blind_rotate_batch,
    key_switch,
    key_switch_batch,
    modulus_switch,
    programmable_bootstrap,
    programmable_bootstrap_batch,
)
from .decomposition import decompose
from .encoding import (
    extend_lut_antiperiodic,
    identity_test_polynomial,
    make_test_polynomial,
    message_to_signed,
    signed_to_message,
)
from .ggsw import GgswCiphertext, external_product_spectrum_batch
from .glwe import (
    GlweCiphertext,
    GlweSecretKey,
    glwe_decrypt_phase,
    glwe_keygen,
    sample_extract_batch,
)
from .keys import KeySet, KeySwitchingKey, generate_keyset, make_ksk
from .lwe import (
    LweCiphertext,
    LweSecretKey,
    lwe_add,
    lwe_add_plain,
    lwe_decrypt_phase,
    lwe_encrypt,
    lwe_keygen,
    lwe_neg,
    lwe_scalar_mul,
    lwe_sub,
    lwe_trivial,
)
from .boolean import (
    Circuit,
    Wire,
    equality_comparator,
    less_than_comparator,
    multiplexer,
    ripple_carry_adder,
)
from .integer import (
    RadixInteger,
    add_integers,
    bootstrap_cost,
    decrypt_integer,
    encrypt_integer,
    equals_integer,
    less_than_integer,
    scalar_mul_integer,
)
from .ops import GATE_LUTS, TfheContext
from .multilut import make_multi_test_polynomial, max_luts_for_params, multi_lut_bootstrap
from .serialization import (
    load_ciphertext,
    load_evaluation_keys,
    load_keyset,
    save_ciphertext,
    save_evaluation_keys,
    save_keyset,
)

__all__ = [
    "modulus_switch",
    "blind_rotate_batch",
    "key_switch",
    "key_switch_batch",
    "programmable_bootstrap",
    "programmable_bootstrap_batch",
    "decompose",
    "make_test_polynomial",
    "identity_test_polynomial",
    "extend_lut_antiperiodic",
    "signed_to_message",
    "message_to_signed",
    "GgswCiphertext",
    "external_product_spectrum_batch",
    "GlweCiphertext",
    "GlweSecretKey",
    "glwe_keygen",
    "glwe_decrypt_phase",
    "sample_extract_batch",
    "KeySet",
    "KeySwitchingKey",
    "generate_keyset",
    "make_ksk",
    "LweCiphertext",
    "LweSecretKey",
    "lwe_keygen",
    "lwe_encrypt",
    "lwe_decrypt_phase",
    "lwe_trivial",
    "lwe_add",
    "lwe_sub",
    "lwe_neg",
    "lwe_scalar_mul",
    "lwe_add_plain",
    "TfheContext",
    "GATE_LUTS",
    "Circuit",
    "Wire",
    "ripple_carry_adder",
    "equality_comparator",
    "less_than_comparator",
    "multiplexer",
    "RadixInteger",
    "encrypt_integer",
    "decrypt_integer",
    "add_integers",
    "scalar_mul_integer",
    "equals_integer",
    "less_than_integer",
    "bootstrap_cost",
    "make_multi_test_polynomial",
    "multi_lut_bootstrap",
    "max_luts_for_params",
    "save_keyset",
    "load_keyset",
    "save_evaluation_keys",
    "load_evaluation_keys",
    "save_ciphertext",
    "load_ciphertext",
]
