"""Per-CMux reference bootstrap: the oracle the batch pipeline is tested against."""

from repro.tfhe import (
    cmux,
    glwe_rotate,
    glwe_trivial,
    key_switch,
    modulus_switch,
    sample_extract,
)


def reference_bootstrap(ct, test_poly, keyset, engine):
    """MS -> BR -> SE -> KS, one scalar CMux per non-zero digit.

    ``engine`` is :func:`repro.tfhe.cmux`'s: ``"transform"``, ``"fft"``
    (per-product transforms) or ``"exact"`` (O(N^2) integer reference).
    Each CMux reads its GGSW's coefficient rows recovered from the table.
    """
    params = keyset.params
    a_tilde, b_tilde = modulus_switch(ct, params.N)
    acc = glwe_rotate(glwe_trivial(test_poly, params.k), -b_tilde)
    for i in range(params.n):
        t = int(a_tilde[i])
        if t:
            acc = cmux(keyset.bsk_ggsw(i), acc, glwe_rotate(acc, t), engine=engine)
    return key_switch(sample_extract(acc, 0), keyset.ksk)
