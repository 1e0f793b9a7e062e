"""Distance from an invertible matrix to the unitary group.

The infimum of ||A - U|| over unitaries equals max(||A|| - 1, 1 - 1/||A^-1||)
and is attained by the unitary polar factor of A. Combined with the psi
envelopes this yields the radius-driven gap bound: if w_rho(A) <= r and
w_rho(A^-1) <= r then some unitary U has ||A - U|| <= psi_rho_upper(r) - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import _check_r, psi_rho_upper
from .linalg import _polar_svd

__all__ = ["UnitaryGap", "distance_to_unitaries", "stampfli_gap_bound"]


@dataclass(frozen=True)
class UnitaryGap:
    """Distance to the unitary group and the nearest unitary.

    distance = max(norm_excess, inverse_excess) where norm_excess = ||A|| - 1
    and inverse_excess = 1 - 1/||A^-1||; `nearest` is the unitary polar
    factor, which attains the distance in operator norm.
    """

    distance: float
    nearest: np.ndarray
    norm_excess: float
    inverse_excess: float


def _excesses(s: np.ndarray) -> tuple[float, float, float]:
    """(distance, ||A|| - 1, 1 - 1/||A^-1||) from the descending singular
    values of A: the distance to the unitaries is the larger excess."""
    norm_excess, inverse_excess = float(s[0] - 1.0), float(1.0 - s[-1])
    return max(norm_excess, inverse_excess), norm_excess, inverse_excess


def distance_to_unitaries(a) -> UnitaryGap:
    """Operator-norm distance from an invertible matrix to the unitaries."""
    nearest, s = _polar_svd(a)
    distance, norm_excess, inverse_excess = _excesses(s)
    return UnitaryGap(
        distance=distance,
        nearest=nearest,
        norm_excess=norm_excess,
        inverse_excess=inverse_excess,
    )


def stampfli_gap_bound(w: float, w_inv: float, rho: float = 2.0) -> float:
    """Upper bound psi_rho_upper(max(w, w_inv)) - 1 on the unitary distance.

    w and w_inv are rho-radii of the matrix and of its inverse; both must be
    finite and >= 1 (up to 1e-12 slack).
    """
    return psi_rho_upper(rho, max(_check_r(w), _check_r(w_inv))) - 1.0


def _distance_violated(distance: float, gap_bound: float) -> bool:
    """dist(A, U) exceeds the gap bound psi_rho(r) - 1 by more than 1e-8."""
    return distance > gap_bound + 1e-8


def _norm_violated(norm: float, psi: float) -> bool:
    """||A|| exceeds psi_rho(r) by more than 1e-6 relative."""
    return norm > psi * (1.0 + 1e-6)
