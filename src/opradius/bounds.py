"""Closed-form bound functions linking radius data to operator norms.

X(r) = r + sqrt(r^2 - 1) and psi_upper(r) = X(r) + sqrt(X(r)^2 - 1) bound the
worst-case operator norm of matrices whose numerical radius and the numerical
radius of whose inverse are both at most r. x_rho generalizes X to the
rho-radius for 1 <= rho <= 2 and collapses to X at rho = 2 and to r at
rho = 1. The 2x2 witness [[1, 2y], [0, -1]] with y = sqrt(r^2 - 1) is
self-inverse, has numerical radius r, and attains norm X(r), so X is also the
certified lower envelope at rho = 2.

Square roots of r^2 - 1 are evaluated as sqrt((r - 1)(r + 1)) to avoid
cancellation; the quartic-rate experiments probe r - 1 down to 1e-9. One
overflow rule serves every square root of a product: sqrt(x y) is taken as
sqrt(x) sqrt(y) where x y overflows float64, so every envelope is finite
wherever its value is; a value beyond float64 raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _check_count, _inverse, as_matrix, singular_values

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


def _sqrt_product(x: float, y: float) -> float:
    """sqrt(x y) for x, y >= 0, as sqrt(x) sqrt(y) where x y overflows float64."""
    product = x * y
    return math.sqrt(product) if product < math.inf else math.sqrt(x) * math.sqrt(y)


def _sqrt_sq_minus_one(x: float) -> float:
    return _sqrt_product(max(x - 1.0, 0.0), x + 1.0)


def _in_range(value: float) -> float:
    """value, unchanged; an envelope value beyond float64 raises ValueError."""
    if value == math.inf:
        raise ValueError("bound envelope exceeds the float64 range")
    return value


def x_of_r(r: float) -> float:
    """X(r) = r + sqrt(r^2 - 1); X(1) = 1. This is x_rho(2, r)."""
    return x_rho(2.0, r)


def psi_upper(r: float) -> float:
    """Upper envelope X(r) + sqrt(X(r)^2 - 1); equals 1 at r = 1."""
    return psi_rho_upper(2.0, r)


def x_rho(rho: float, r: float) -> float:
    """X_rho(r) = (q + sqrt(q^2 - 4 r^2)) / (2r) with q = 2 + rho r^2 - rho.

    Evaluated as a + sqrt((r - 1) c (a + 1)), with h = rho/2, a = r h +
    (1 - h)/r = q/(2r) and c = (rho - 1) + (1 - h)(r - 1)/r = (rho r + rho -
    2)/(2r). As h, 1 - h, rho - 1 and r - 1 are exact, c is a sum of two
    nonnegative terms that cancels nowhere, a = 1 at r = 1, and at rho = 2
    a = r and c = 1: x_rho(2, r) = r + sqrt((r - 1)(r + 1)) = x_of_r(r) bit
    for bit.
    """
    return _x_rho(rho, r)[0]


def _x_rho(rho: float, r: float) -> tuple[float, float]:
    """(X_rho(r), X_rho(r) - 1) by x_rho's evaluation, the second as (a - 1)
    + root = (r - 1) c + root, a sum of nonnegative terms: X less 1 would
    cancel where X is near 1."""
    rho, r = _check_rho(rho), _check_r(r)
    h = rho / 2.0
    a = r * h + (1.0 - h) / r
    c = (rho - 1.0) + (1.0 - h) * (r - 1.0) / r
    root = _sqrt_product(r - 1.0, c * (a + 1.0))
    # X_rho(r) >= X_rho(1) = 1; the clamp absorbs rounding in a
    return _in_range(max(a + root, 1.0)), (r - 1.0) * c + root


def psi_rho_upper(rho: float, r: float) -> float:
    """Upper envelope X + sqrt((X - 1)(X + 1)) with X = X_rho(r); always >=
    1. X - 1 is x_rho's exact-difference form, not X less 1, whose
    cancellation the square root would amplify near r = 1."""
    x, x_minus_one = _x_rho(rho, r)
    return _in_range(x + _sqrt_product(x_minus_one, x + 1.0))


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

    Returns ([[1, 2y], [0, -1]], x_of_r(r) = r + y) with y = sqrt(r^2 - 1).
    The matrix is exactly self-inverse.
    """
    r = _check_r(r)
    y = _sqrt_sq_minus_one(r)
    witness = np.array([[1.0, 2.0 * y], [0.0, -1.0]], dtype=np.complex128)
    return witness, x_of_r(r)


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

    psi_lower is the certified lower envelope: at rho = 2 the 2x2 witness
    value X(r), which is the row's own X, and the scaled-unitary value r
    otherwise. Both ends of the grid must be finite and >= 1, and steps an
    integer >= 1.
    """
    rho = _check_rho(rho)
    r_min = _check_r(r_min)
    if r_max < r_min:
        raise ValueError("r_max must be >= r_min")
    r_max = _check_r(r_max)
    rs = np.linspace(r_min, r_max, _check_count("steps", steps, 1))
    return BoundCurve(rho, [
        BoundRow(r=r, x_value=(x := x_rho(rho, r)), psi_upper=psi_rho_upper(rho, r),
                 psi_lower=x if rho == 2.0 else r,
                 asymptotic=_asymptotic_unchecked(r - 1.0, rho))
        for r in map(float, rs)])
