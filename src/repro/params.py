"""TFHE parameter sets used throughout the Morphling reproduction.

The paper (Table III) evaluates seven TFHE parameter sets.  Sets I-IV use
``k = 1`` and are used for the cross-platform comparison in Table V; sets
A-C increase ``k`` and exercise the transform-domain reuse ablation in
Figure 7-b.  Figure 1's operation breakdown uses a separate 128-bit set
(``N=1024, n=481, k=2, l_b=4, l_k=9``).

All parameters follow the paper's notation (its Table II):

===========  =================================================
``N``        polynomial size (degree of the negacyclic ring)
``n``        LWE dimension
``k``        GLWE dimension
``q``        ciphertext modulus (always ``2**32`` here)
``beta``     gadget decomposition base
``l_b``      bootstrapping-key decomposition level
``l_k``      key-switching-key decomposition level
``lam``      claimed security level in bits
===========  =================================================
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

#: Width of the ciphertext modulus ``q = 2**Q_BITS`` of every parameter
#: set: the discretized torus is held in ``uint32`` words.
Q_BITS = 32

__all__ = [
    "Q_BITS",
    "TFHEParams",
    "SchemeProfile",
    "PARAM_SETS",
    "SCHEME_PROFILES",
    "FIG1_PARAMS",
    "TEST_PARAMS",
    "TEST_PARAMS_K2",
    "get_params",
]


@dataclass(frozen=True)
class TFHEParams:
    """A complete TFHE parameter set.

    Beyond the paper's Table III columns (``N``, ``n``, ``k``, ``l_b``,
    ``lam``) the set carries everything the scheme substrate needs:
    decomposition bases for the bootstrapping and key-switching keys and
    the noise standard deviations used at encryption time (expressed as
    fractions of the torus).  The ciphertext modulus is not a field:
    every set computes on ``q = 2**Q_BITS``.
    """

    name: str
    N: int
    n: int
    k: int
    l_b: int
    lam: int
    beta_bits: int = 8
    l_k: int = 4
    beta_ks_bits: int = 4
    lwe_noise_log2: float = -15.0
    glwe_noise_log2: float = -25.0

    def __post_init__(self) -> None:
        if self.N <= 0 or self.N & (self.N - 1):
            raise ValueError(f"N must be a power of two, got {self.N}")
        if self.n <= 0:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.l_b < 1 or self.l_k < 1:
            raise ValueError("decomposition levels must be >= 1")
        if self.beta_bits * self.l_b > Q_BITS:
            raise ValueError(
                "bootstrap decomposition exceeds modulus: "
                f"beta_bits * l_b = {self.beta_bits * self.l_b} > {Q_BITS}"
            )
        if self.beta_ks_bits * self.l_k > Q_BITS:
            raise ValueError(
                "key-switch decomposition exceeds modulus: "
                f"beta_ks_bits * l_k = {self.beta_ks_bits * self.l_k} > {Q_BITS}"
            )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def q_bits(self) -> int:
        """Ciphertext modulus width: :data:`Q_BITS`, the same for every set."""
        return Q_BITS

    @property
    def q(self) -> int:
        """Ciphertext modulus ``2**Q_BITS``."""
        return 1 << Q_BITS

    @property
    def beta(self) -> int:
        """Gadget decomposition base for the bootstrapping key."""
        return 1 << self.beta_bits

    @property
    def beta_ks(self) -> int:
        """Gadget decomposition base for the key-switching key."""
        return 1 << self.beta_ks_bits

    @property
    def glwe_lwe_dimension(self) -> int:
        """Dimension of the LWE ciphertext extracted from a GLWE (``k*N``)."""
        return self.k * self.N

    @property
    def polynomials_per_ggsw(self) -> int:
        """Number of ring polynomials in one GGSW ciphertext."""
        return (self.k + 1) * self.l_b * (self.k + 1)

    @property
    def polymults_per_external_product(self) -> int:
        """Polynomial multiplications per external product: (k+1)^2 * l_b."""
        return (self.k + 1) * (self.k + 1) * self.l_b

    @property
    def polymults_per_bootstrap(self) -> int:
        """Polynomial multiplications in one blind rotation (n externals)."""
        return self.n * self.polymults_per_external_product

    # ------------------------------------------------------------------
    # Memory footprints (bytes), matching the Fig. 1 accounting
    # ------------------------------------------------------------------
    @property
    def coeff_bytes(self) -> int:
        """Bytes per polynomial coefficient in the standard domain."""
        return Q_BITS // 8

    @property
    def bsk_bytes(self) -> int:
        """Bootstrapping key size: ``n`` GGSW ciphertexts."""
        return self.n * self.polynomials_per_ggsw * self.N * self.coeff_bytes

    @property
    def bsk_transform_bytes(self) -> int:
        """BSK pre-computed in the transform domain.

        A length-``N`` real polynomial becomes ``N/2`` complex points;
        Morphling packs each complex point as 32-bit real + 32-bit
        imaginary, so the transform-domain image is byte-for-byte the
        same size as the coefficient image.
        """
        return self.bsk_bytes

    @property
    def ksk_bytes(self) -> int:
        """Key-switching key size: ``k*N*l_k`` LWE ciphertexts."""
        return self.k * self.N * self.l_k * (self.n + 1) * self.coeff_bytes

    @property
    def lwe_bytes(self) -> int:
        """One LWE ciphertext under the small key."""
        return (self.n + 1) * self.coeff_bytes

    @property
    def glwe_bytes(self) -> int:
        """One GLWE ciphertext (the ACC working set of one bootstrap)."""
        return (self.k + 1) * self.N * self.coeff_bytes

    def with_overrides(self, **kwargs: Any) -> "TFHEParams":
        """Return a copy with selected fields replaced (for sweeps)."""
        return replace(self, **kwargs)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.name}: N={self.N} n={self.n} k={self.k} "
            f"l_b={self.l_b} lambda={self.lam}-bit"
        )


# ---------------------------------------------------------------------------
# Table III — the seven parameter sets evaluated by the paper
# ---------------------------------------------------------------------------
# The paper's (N, n, k, l_b, lambda) are kept verbatim - they drive the
# performance model.  TFHE-rs realizes the 128-bit N=2048/4096 sets over a
# 64-bit modulus; our functional substrate is 32-bit, so the decomposition
# base and noise level of each set are re-derived for q = 2**32 such that
# the noise budget closes with the same l_b (documented in DESIGN.md).
PARAM_SETS: dict = {
    "I": TFHEParams("I", N=1024, n=500, k=1, l_b=2, lam=80,
                    beta_bits=10, l_k=4, beta_ks_bits=3, glwe_noise_log2=-29.0),
    "II": TFHEParams("II", N=1024, n=630, k=1, l_b=3, lam=110,
                     beta_bits=7, l_k=4, beta_ks_bits=3, glwe_noise_log2=-29.0),
    "III": TFHEParams("III", N=2048, n=592, k=1, l_b=3, lam=128,
                      beta_bits=8, l_k=4, beta_ks_bits=3, glwe_noise_log2=-30.0),
    "IV": TFHEParams("IV", N=2048, n=742, k=1, l_b=1, lam=128,
                     beta_bits=16, l_k=5, beta_ks_bits=3, glwe_noise_log2=-31.5),
    "A": TFHEParams("A", N=4096, n=769, k=1, l_b=1, lam=128,
                    beta_bits=16, l_k=5, beta_ks_bits=3, glwe_noise_log2=-31.5),
    "B": TFHEParams("B", N=1024, n=497, k=2, l_b=2, lam=128,
                    beta_bits=10, l_k=4, beta_ks_bits=3, glwe_noise_log2=-29.0),
    "C": TFHEParams("C", N=512, n=487, k=3, l_b=3, lam=128,
                    beta_bits=7, l_k=4, beta_ks_bits=3, glwe_noise_log2=-29.0),
}

#: The 128-bit set used for Figure 1's operation breakdown.
FIG1_PARAMS = TFHEParams("fig1", N=1024, n=481, k=2, l_b=4, lam=128,
                         beta_bits=6, l_k=9, beta_ks_bits=3)

#: A small parameter set for fast functional tests.  Not secure - the LWE
#: dimension is tiny so encrypt/bootstrap/decrypt round-trips run in
#: milliseconds while exercising every code path of the real scheme.
TEST_PARAMS = TFHEParams("test", N=256, n=16, k=1, l_b=3, lam=0,
                         beta_bits=7, l_k=3, beta_ks_bits=6,
                         lwe_noise_log2=-22.0, glwe_noise_log2=-30.0)

#: A k=2 functional test set: exercises the multi-component GLWE paths
#: (three-column VPE waves, wider decomposition vectors) where the
#: paper's transform-domain reuse pays most.  Also insecure by design.
TEST_PARAMS_K2 = TFHEParams("test-k2", N=128, n=12, k=2, l_b=2, lam=0,
                            beta_bits=9, l_k=3, beta_ks_bits=6,
                            lwe_noise_log2=-22.0, glwe_noise_log2=-30.0)


def get_params(name: str) -> TFHEParams:
    """Look up a parameter set by name (Table III name, ``fig1`` or ``test``)."""
    if name == "fig1":
        return FIG1_PARAMS
    if name == "test":
        return TEST_PARAMS
    if name == "test-k2":
        return TEST_PARAMS_K2
    try:
        return PARAM_SETS[name]
    except KeyError:
        known = ", ".join(list(PARAM_SETS) + ["fig1", "test", "test-k2"])
        raise KeyError(f"unknown parameter set {name!r}; known sets: {known}") from None


# ---------------------------------------------------------------------------
# Table I — typical ciphertext parameters per FHE scheme
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SchemeProfile:
    """Typical ciphertext parameter ranges of an FHE scheme (paper Table I)."""

    scheme: str
    log2_p_range: tuple
    log2_q_range: tuple
    log2_n_range: tuple
    needs_rns: bool
    programmable_bootstrap: bool

    @property
    def is_small_parameter(self) -> bool:
        """True for the small-parameter family (TFHE)."""
        return self.log2_q_range[1] <= 64


SCHEME_PROFILES: dict = {
    "TFHE": SchemeProfile("TFHE", (1, 8), (32, 64), (8, 12),
                          needs_rns=False, programmable_bootstrap=True),
    "CKKS": SchemeProfile("CKKS", (1, 32), (64, 1024), (10, 16),
                          needs_rns=True, programmable_bootstrap=False),
    "BGV": SchemeProfile("BGV", (1, 32), (64, 1024), (10, 16),
                         needs_rns=True, programmable_bootstrap=False),
    "BFV": SchemeProfile("BFV", (1, 32), (64, 1024), (10, 16),
                         needs_rns=True, programmable_bootstrap=False),
}
