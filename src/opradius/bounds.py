"""Closed-form bound functions linking radius data to operator norms.

X(r) = r + sqrt(r^2 - 1) and psi_upper(r) = X(r) + sqrt(X(r)^2 - 1) bound the
worst-case operator norm of matrices whose numerical radius and the numerical
radius of whose inverse are both at most r. x_rho generalizes X to the
rho-radius for 1 <= rho <= 2 and collapses to X at rho = 2 and to r at
rho = 1. The 2x2 witness [[1, 2y], [0, -1]] with y = sqrt(r^2 - 1) is
self-inverse, has numerical radius r, and attains norm X(r), so X is also the
certified lower envelope at rho = 2.

Square roots of r^2 - 1 are evaluated as sqrt((r - 1)(r + 1)) to avoid
cancellation; the quartic-rate experiments probe r - 1 down to 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _inverse, as_matrix, singular_values

__all__ = [
    "x_of_r",
    "psi_upper",
    "x_rho",
    "psi_rho_upper",
    "crossover_radius",
    "lower_witness",
    "midpoint_certificate",
    "bound_curve",
    "BoundRow",
    "BoundCurve",
    "MidpointReport",
]

_R_SLACK = 1e-12


def _check_r(r: float) -> float:
    """r clamped up to 1; r more than 1e-12 below 1, NaN or inf is rejected."""
    if r < 1.0 - _R_SLACK:
        raise ValueError(f"r must be >= 1, got {r}")
    if not math.isfinite(r):
        raise ValueError(f"r must be finite, got {r}")
    return max(float(r), 1.0)


def _check_rho(rho: float) -> float:
    """rho clamped into [1, 2]; rho more than 1e-12 outside, or NaN, is rejected."""
    if not 1.0 - _R_SLACK <= rho <= 2.0 + _R_SLACK:
        raise ValueError(f"rho must lie in [1, 2], got {rho}"
                         + ("; the rho > 2 regime is unsupported" if rho > 2 else ""))
    return min(max(float(rho), 1.0), 2.0)


def _sqrt_sq_minus_one(x: float) -> float:
    return math.sqrt(max(x - 1.0, 0.0) * (x + 1.0))


def x_of_r(r: float) -> float:
    """X(r) = r + sqrt(r^2 - 1); X(1) = 1."""
    r = _check_r(r)
    return r + _sqrt_sq_minus_one(r)


def psi_upper(r: float) -> float:
    """Upper envelope X(r) + sqrt(X(r)^2 - 1); equals 1 at r = 1."""
    x = x_of_r(r)
    return x + _sqrt_sq_minus_one(x)


def x_rho(rho: float, r: float) -> float:
    """X_rho(r) = (2 + rho r^2 - rho + sqrt((2 + rho r^2 - rho)^2 - 4 r^2)) / (2r).

    x_rho(2, r) = x_of_r(r), x_rho(1, r) = r, and x_rho(rho, 1) = 1.
    """
    rho = _check_rho(rho)
    r = _check_r(r)
    q = 2.0 + rho * r * r - rho
    # discriminant factored so that the (r - 1) root is taken exactly
    disc = max(r - 1.0, 0.0) * (rho * r + rho - 2.0) * (q + 2.0 * r)
    # X_rho(r) >= X_rho(1) = 1; the clamp absorbs one-ulp rounding in q
    return max((q + math.sqrt(max(disc, 0.0))) / (2.0 * r), 1.0)


def psi_rho_upper(rho: float, r: float) -> float:
    """Upper envelope X_rho(r) + sqrt(X_rho(r)^2 - 1); always >= 1."""
    x = x_rho(rho, r)
    return x + _sqrt_sq_minus_one(x)


def _asymptotic_unchecked(eps: float, rho: float) -> float:
    """Leading-order envelope 1 + (8 (rho - 1) eps)^(1/4) for small eps >= 0."""
    return 1.0 + (8.0 * (rho - 1.0) * max(eps, 0.0)) ** 0.25


def crossover_radius() -> float:
    """Root sqrt(2 + sqrt 5)/2 of psi_upper(r) = 2r.

    With r = cosh t, X(r) = e^t and the equation reads e^{4t} - e^{2t} - 1 = 0,
    so e^{2t} is the golden ratio. Below this radius the psi_upper envelope
    beats the generic 2r bound.
    """
    return math.sqrt(2.0 + math.sqrt(5.0)) / 2.0


def lower_witness(r: float) -> tuple[np.ndarray, float]:
    """The 2x2 witness attaining norm X(r) at numerical radius r.

    Returns ([[1, 2y], [0, -1]], r + sqrt(r^2 - 1)) with y = sqrt(r^2 - 1).
    The matrix is exactly self-inverse.
    """
    r = _check_r(r)
    y = _sqrt_sq_minus_one(r)
    witness = np.array([[1.0, 2.0 * y], [0.0, -1.0]], dtype=np.complex128)
    return witness, r + y


@dataclass(frozen=True)
class MidpointReport:
    """Certificate from the midpoint operator M = (A + (A*)^-1) / 2.

    M always satisfies ||M^-1|| <= 1 and ||A|| <= ||M|| + sqrt(||M||^2 - 1);
    `slack` is that bound minus ||A|| (nonnegative up to roundoff).
    """

    midpoint: np.ndarray
    norm_a: float
    norm_m: float
    inverse_norm_m: float
    bound: float
    slack: float


def midpoint_certificate(a) -> MidpointReport:
    """Build M = (A + (A*)^-1)/2 and verify its norm certificate for A.

    Raises ArithmeticError if either certified inequality fails beyond
    tolerance, which signals numerical breakdown rather than a counterexample.
    """
    a = as_matrix(a)
    sv_a = singular_values(a)
    m = (a + _inverse(a, sv_a).conj().T) / 2
    sv_m = singular_values(m)
    norm_a = float(sv_a[0])
    norm_m = float(sv_m[0])
    inverse_norm_m = float(1.0 / sv_m[-1])
    if inverse_norm_m > 1.0 + 1e-10:
        raise ArithmeticError(
            f"midpoint contractivity failed: ||M^-1|| = {inverse_norm_m:.12g} > 1")
    bound = norm_m + _sqrt_sq_minus_one(norm_m)
    if norm_a > bound + 1e-9:
        raise ArithmeticError(
            f"midpoint norm bound failed: ||A|| = {norm_a:.12g} > {bound:.12g}")
    return MidpointReport(m, norm_a, norm_m, inverse_norm_m, bound, bound - norm_a)


@dataclass(frozen=True)
class BoundRow:
    r: float
    x_value: float
    psi_upper: float
    psi_lower: float
    asymptotic: float


@dataclass(frozen=True)
class BoundCurve:
    rho: float
    rows: list[BoundRow]


def bound_curve(rho: float, r_min: float = 1.0, r_max: float = 2.0,
                steps: int = 101) -> BoundCurve:
    """Tabulate X_rho, the psi envelopes, and the quartic asymptote on a grid.

    psi_lower is the certified lower envelope: the 2x2 witness value X(r) at
    rho = 2, and the scaled-unitary value r otherwise. Both ends of the grid
    must be finite and >= 1, and steps an integer >= 1.
    """
    rho = _check_rho(rho)
    r_min = _check_r(r_min)
    if r_max < r_min:
        raise ValueError("r_max must be >= r_min")
    r_max = _check_r(r_max)
    if not isinstance(steps, (int, np.integer)):
        raise ValueError(f"steps must be an integer, got {steps!r}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    rs = np.linspace(r_min, r_max, steps)
    rows = []
    for r in rs:
        r = float(r)
        lower = x_of_r(r) if rho == 2.0 else r
        rows.append(BoundRow(
            r=r,
            x_value=x_rho(rho, r),
            psi_upper=psi_rho_upper(rho, r),
            psi_lower=lower,
            asymptotic=_asymptotic_unchecked(r - 1.0, rho),
        ))
    return BoundCurve(rho, rows)
