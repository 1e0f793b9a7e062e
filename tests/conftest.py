from dataclasses import replace

import numpy as np


def gaussian_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Complex Gaussian entries with mean 0 and variance 1/dim."""
    return (rng.standard_normal((dim, dim))
            + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0 * dim)


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim))
                        + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def seeded(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def perturb(fam, i: int, j: int, amount: float):
    """Copy of an extremal family member with A[i, j] shifted."""
    a = fam.A.copy()
    a[i, j] += amount
    return replace(fam, A=a)
