"""Batched LWE ciphertexts: the accelerator's native granularity.

Morphling never bootstraps one ciphertext - the scheduler groups 64 LWE
ciphertexts and streams them through 16 bootstrap cores (Section V-E).
``LweBatch`` gives the substrate the same shape: a ``(B, n)`` mask matrix
plus a ``(B,)`` body vector with fully vectorized encryption, decryption
and linear homomorphisms, and a batched bootstrap driver that mirrors the
hardware's grouping (and reports how the scheduler would split it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bootstrap import programmable_bootstrap_batch
from .keys import KeySet
from .lwe import LweCiphertext, LweSecretKey, gaussian_torus_noise
from .torus import (
    TORUS_DTYPE,
    decode_message,
    encode_message,
    to_torus,
    torus_dot,
    torus_scalar_mul,
)

__all__ = ["LweBatch", "encrypt_batch", "decrypt_batch", "bootstrap_batch"]


@dataclass
class LweBatch:
    """A batch of LWE ciphertexts under one key."""

    a: np.ndarray  # (B, n) uint32
    b: np.ndarray  # (B,) uint32

    def __post_init__(self) -> None:
        self.a = np.asarray(self.a, dtype=TORUS_DTYPE)
        self.b = np.asarray(self.b, dtype=TORUS_DTYPE)
        if self.a.ndim != 2 or self.b.shape != (self.a.shape[0],):
            raise ValueError("batch needs a (B, n) mask and (B,) body")

    # -- container ------------------------------------------------------
    @property
    def size(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.a.shape[1]

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, index: int) -> LweCiphertext:
        return LweCiphertext(self.a[index].copy(), self.b[index])

    @classmethod
    def from_ciphertexts(cls, cts: list) -> "LweBatch":
        if not cts:
            raise ValueError("cannot build an empty batch")
        n = cts[0].n
        if any(ct.n != n for ct in cts):
            raise ValueError("mixed LWE dimensions in batch")
        return cls(np.stack([ct.a for ct in cts]), np.array([ct.b for ct in cts]))

    def to_ciphertexts(self) -> list:
        return [self[i] for i in range(self.size)]

    # -- linear homomorphisms --------------------------------------------
    def __add__(self, other: "LweBatch") -> "LweBatch":
        if self.a.shape != other.a.shape:
            raise ValueError("batch shapes differ")
        return LweBatch(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "LweBatch") -> "LweBatch":
        if self.a.shape != other.a.shape:
            raise ValueError("batch shapes differ")
        return LweBatch(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "LweBatch":
        return LweBatch(
            (-self.a.astype(np.int64)).astype(TORUS_DTYPE),
            (-self.b.astype(np.int64)).astype(TORUS_DTYPE),
        )

    def scalar_mul(self, scalars) -> "LweBatch":
        """Per-ciphertext plaintext scalar multiplication."""
        s = np.asarray(scalars, dtype=np.int64)
        if s.ndim == 0:
            s = np.full(self.size, int(s), dtype=np.int64)
        if s.shape != (self.size,):
            raise ValueError("need one scalar per ciphertext")
        return LweBatch(
            torus_scalar_mul(s[:, None], self.a),
            torus_scalar_mul(s, self.b),
        )

    def add_plain(self, torus_values) -> "LweBatch":
        """Add plaintext torus numerators to the bodies."""
        t = to_torus(np.asarray(torus_values, dtype=np.int64))
        return LweBatch(self.a.copy(), self.b + np.broadcast_to(t, self.b.shape))


def encrypt_batch(
    messages,
    p: int,
    key: LweSecretKey,
    rng: np.random.Generator,
    noise_log2: float = -15.0,
) -> LweBatch:
    """Vectorized encryption of ``messages`` in ``Z_p``."""
    msgs = np.asarray(messages, dtype=np.int64)
    if msgs.ndim != 1:
        raise ValueError("messages must be a 1-D sequence")
    size = msgs.shape[0]
    a = rng.integers(0, 1 << 32, size=(size, key.n), dtype=np.uint64).astype(TORUS_DTYPE)
    e = gaussian_torus_noise(rng, noise_log2, shape=(size,))
    mask_dot = torus_dot(a, key.bits[None, :])
    b = mask_dot + encode_message(msgs, p) + e
    return LweBatch(a, b.astype(TORUS_DTYPE))


def decrypt_batch(batch: LweBatch, p: int, key: LweSecretKey) -> np.ndarray:
    """Vectorized decryption back to ``Z_p``."""
    mask_dot = torus_dot(batch.a, key.bits[None, :])
    phases = (batch.b - mask_dot).astype(TORUS_DTYPE)
    return decode_message(phases, p)


def bootstrap_batch(
    batch: LweBatch,
    test_poly: np.ndarray,
    keyset: KeySet,
    group_size: int = 64,
) -> LweBatch:
    """Bootstrap every ciphertext, processed in scheduler-shaped groups.

    Each group runs through the vectorized
    :func:`~repro.tfhe.bootstrap.programmable_bootstrap_batch` kernel
    (one BSK pass shared by the whole group, mirroring how the HW
    scheduler streams 64 LWE ciphertexts through the VPE rows).  Results
    are bit-identical for every ``group_size``.
    """
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    outputs = []
    for start in range(0, batch.size, group_size):
        group = [batch[i] for i in range(start, min(start + group_size, batch.size))]
        outputs.extend(programmable_bootstrap_batch(group, test_poly, keyset))
    return LweBatch.from_ciphertexts(outputs)
