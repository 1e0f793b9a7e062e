"""Construction and verification of the extremal matrix family A = D B D.

For n = 8k + 4 the family is built from
    D = diag(e^{i pi/2n}, e^{3 i pi/2n}, ..., e^{(2n-1) i pi/2n}),
    E = 0/1 symmetric band matrix, e_ij = 1 iff 3k+2 <= |i - j| <= 5k+2,
    B = I + E / (2 n^{3/2}),
    A = D B D.

The congruence n = 8k + 4 makes the band self-complementary modulo n, so E is
a circulant, every row sums to exactly n/4 = 2k + 1, and conjugation by the
shift-and-sign unitary P Delta rotates A by e^{2 i pi / n}. Consequences that
this module machine-checks:

  * ||E|| = n/4, ||M2|| = 1/(8 sqrt(n)) and ||A|| = ||B|| = 1 + 1/(8 sqrt(n)),
    with E_opnorm_err, M2_opnorm_err, B_norm_err and A_vs_B_norm_gap derived
    from the row sums r_i of E, M2 = c E and B: min r_i <= ||X|| <= max r_i for
    symmetric nonnegative X (Perron-Frobenius); the gap also reads A's SVD,
  * the numerical range is invariant under rotation by 2 pi / n,
  * both Hermitian parts (A + A*)/2 and (A^-1 + (A^-1)*)/2 have norm <= 1,
    via explicit certificate matrices whose norms obey fixed rational bounds,
  * hence the numerical radii of A and A^-1 are at most 1/cos(pi/n) while the
    norm excess ||A|| - 1 = 1/(8 sqrt(n)) decays like the 1/4 power of the
    radius excess; scaling_experiment fits that exponent.

A's SVD and inverse, the cot band and its norm are computed once per family:
verify runs 1 complex SVD, 4 real SVDs and 1 inv, and a scaling row 1 complex
SVD and 1 inv.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import _inverse, _signed_conjugate, singular_values
from .radii import RadiusEstimate, numerical_radius

__all__ = [
    "ExtremalFamily", "CertificateCheck", "CertificateReport", "ScalingRow",
    "ScalingTable", "build", "check_symmetry", "check_norm", "check_real_parts",
    "certificate_31", "certificate_32", "family_radii", "verify",
    "scaling_experiment",
]

MAX_DIM = 500
# _check's default slack for certificate pass/fail decisions
CHECK_SLACK = 1e-10


@dataclass(frozen=True)
class ExtremalFamily:
    """The construction bundle (n, k, D, E, B, A) with n = 8k + 4."""

    n: int
    k: int
    D: np.ndarray
    E: np.ndarray
    B: np.ndarray
    A: np.ndarray

    @cached_property
    def _a_sv(self) -> np.ndarray:
        return singular_values(self.A)

    @cached_property
    def _a_inv(self) -> np.ndarray:
        return _inverse(self.A, self._a_sv)

    @cached_property
    def _cot(self) -> tuple[float, np.ndarray, np.ndarray]:
        """(scale, W, W * E * scale), scale = 1/(2 n^{3/2}) and W_ij = cot_i cot_j."""
        # cot((i - 1/2) pi / n) for i = 1..n; the argument stays inside (0, pi)
        x = (np.arange(1, self.n + 1) - 0.5) * np.pi / self.n
        cot = np.cos(x) / np.sin(x)
        weights = np.outer(cot, cot)
        scale = 1.0 / (2.0 * self.n ** 1.5)
        return scale, weights, weights * self.E * scale

    @cached_property
    def _m_norm(self) -> float:
        """||M|| of the cot band M = -M1 that both certificates bound."""
        return float(singular_values(self._cot[2])[0])


@dataclass(frozen=True)
class CertificateCheck:
    name: str
    value: float
    bound: float
    passed: bool
    slack: float


@dataclass(frozen=True)
class CertificateReport:
    label: str
    n: int
    checks: tuple[CertificateCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]


def _check(name: str, value: float, bound: float,
           slack: float = CHECK_SLACK) -> CertificateCheck:
    value, bound = float(value), float(bound)
    return CertificateCheck(name, value, bound, value <= bound + slack,
                            bound - value)


def _validate_n(n: int) -> int:
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"n must be an integer, got {n!r}")
    n = int(n)
    if n < 12 or (n - 4) % 8 != 0:
        raise ValueError(f"n must be of the form 8k + 4 with k >= 1, got {n}")
    if n > MAX_DIM:
        raise ValueError(f"n is capped at {MAX_DIM}, got {n}")
    return (n - 4) // 8


def build(n: int) -> ExtremalFamily:
    """Construct the family for n = 8k + 4 and verify its exact invariants."""
    k = _validate_n(n)
    ell = np.arange(1, n + 1)
    d = np.exp(1j * np.pi * (2 * ell - 1) / (2 * n))
    dist = np.abs(np.subtract.outer(ell, ell))
    band = ((dist >= 3 * k + 2) & (dist <= 5 * k + 2)).astype(np.int64)

    if not np.all(band.sum(axis=1) == n // 4):
        raise AssertionError("band row sums must equal n/4 exactly")
    if not np.array_equal(band, band.T) or np.any(np.diag(band) != 0):
        raise AssertionError("band matrix must be symmetric with zero diagonal")

    b = np.eye(n) + band / (2.0 * n ** 1.5)
    a = (d[:, None] * b) * d[None, :]
    return ExtremalFamily(n=n, k=k, D=np.diag(d), E=band, B=b, A=a)


def _signed_shift(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(perm, signs) of P Delta: P e_j = e_{j+1 mod n}, Delta = diag(1, ..., 1, -1)."""
    return (np.arange(n) + 1) % n, np.r_[np.ones(n - 1), -1.0]


def check_symmetry(fam: ExtremalFamily) -> float:
    """Max-entry residual of (P Delta)^-1 A (P Delta) - e^{2 i pi/n} A.

    Also verifies the exact construction identities P^-1 D P = e^{i pi/n} Delta D
    and P^-1 E P = E, raising ArithmeticError if either fails; they do not
    involve A, so a perturbed A still reports its own (large) residual.

    P Delta, e_j -> signs[j] e_{j+1 mod n} with signs = (1, ..., 1, -1), acts by
    index arithmetic, ((P Delta)^-1 M (P Delta))_ij = signs[i] signs[j]
    M_{i+1, j+1}, which gives the dense products' residuals bit for bit.
    """
    n = fam.n
    perm, signs = _signed_shift(n)

    d = np.diag(fam.D)
    d_resid = float(np.max(np.abs(d[perm] - np.exp(1j * np.pi / n) * (signs * d))))
    e_resid = float(np.max(np.abs(fam.E[np.ix_(perm, perm)] - fam.E)))
    if d_resid > 1e-13 or e_resid > 0:
        raise ArithmeticError(
            f"construction identities violated: D-shift residual {d_resid:.3e}, "
            f"E-shift residual {e_resid:.3e}")

    conj = _signed_conjugate(fam.A, perm, signs)
    return float(np.max(np.abs(conj - np.exp(2j * np.pi / n) * fam.A)))


def _norm_excess(n: int) -> float:
    return 1.0 / (8.0 * np.sqrt(n))


def _bracket_err(x: np.ndarray, target: float) -> float:
    """max |r_i - target| over X's row sums, a bound on | ||X|| - target | if X = X^T >= 0."""
    if not (np.array_equal(x, x.T) and np.all(x >= 0)):
        return float("inf")
    return float(np.max(np.abs(x.sum(axis=1) - target)))


def check_norm(fam: ExtremalFamily) -> CertificateReport:
    """Verify ||A|| = ||B|| = 1 + 1/(8 sqrt(n)) and the row-sum eigenvector; the
    norms come from B's row sums and the family's one SVD of A, no other SVD."""
    n = fam.n
    target = 1.0 + _norm_excess(n)
    image = fam.B @ np.ones(n)
    checks = (
        _check("E_row_sum_err", float(np.max(np.abs(fam.E.sum(axis=1) - n // 4))), 0.0),
        _check("B_ones_residual", float(np.max(np.abs(image - target))), 1e-13),
        _check("B_norm_err", _bracket_err(fam.B, target), 1e-11),
        _check("A_vs_B_norm_gap", _bracket_err(fam.B, fam._a_sv[0]), 1e-11),
    )
    return CertificateReport("norm_identity", n, checks)


def check_real_parts(fam: ExtremalFamily) -> CertificateReport:
    """Both Hermitian parts, of A and of A^-1, must have norm <= 1."""
    n = fam.n
    lam_a = np.linalg.eigvalsh((fam.A + fam.A.conj().T) / 2)
    lam_i = np.linalg.eigvalsh((fam._a_inv + fam._a_inv.conj().T) / 2)
    checks = (
        _check("reA_lambda_max", float(lam_a[-1]), 1.0),
        _check("reA_lambda_min_abs", float(-lam_a[0]), 1.0),
        _check("reAinv_lambda_max", float(lam_i[-1]), 1.0),
        _check("reAinv_lambda_min_abs", float(-lam_i[0]), 1.0),
    )
    return CertificateReport("hermitian_part_bound", n, checks)


def certificate_31(fam: ExtremalFamily) -> CertificateReport:
    """Certificate for ||(A + A*)/2|| <= 1.

    M carries cot-product weights on the band; the fixed bounds
    ||M||_F^2 <= 9/32, ||E|| = n/4, ||M|| + ||E||/(2 n^{3/2}) <= 7/8 imply
    that the quadratic form 2 I - M + E/(2 n^{3/2}) is positive semidefinite,
    which is also checked directly through its minimum eigenvalue.
    """
    n = fam.n
    scale, _, m = fam._cot
    e_norm = float(np.max(fam.E.sum(axis=1)))  # >= ||E|| for symmetric 0/1 E
    quad = 2.0 * np.eye(n) - m + fam.E * scale
    lam_min = float(np.linalg.eigvalsh(quad)[0])
    checks = (
        _check("M_frobenius_sq", float(np.sum(m * m)), 9.0 / 32.0),
        _check("E_opnorm_err", _bracket_err(fam.E, n / 4.0), 1e-11),
        _check("M_plus_E_opnorm", fam._m_norm + e_norm * scale, 7.0 / 8.0),
        _check("quad_form_neg_min", -lam_min, 0.0),
    )
    return CertificateReport("hermitian_part_certificate", n, checks)


def certificate_32(fam: ExtremalFamily) -> CertificateReport:
    """Certificate for ||(A^-1 + (A^-1)*)/2|| <= 1.

    Expanding (I + E/(2 n^{3/2}))^-1 splits the quadratic form into four
    pieces M1..M4 built from the band E and the tail F = E^2 (I + E/(2n^{3/2}))^-1;
    their norms obey 3/4, 1/(8 sqrt n), 1/14, 1/56 and sum below 1.
    """
    n = fam.n
    scale, weights, m = fam._cot
    e = fam.E.astype(float)
    m1 = -m
    m2 = e * scale
    f = np.linalg.solve(fam.B, e @ e)
    m3 = weights * f / (4.0 * n ** 3)
    m4 = -f / (4.0 * n ** 3)
    f_norm = float(singular_values(f)[0])
    checks = (
        _check("M1_opnorm", fam._m_norm, 3.0 / 4.0),
        _check("M2_opnorm_err", _bracket_err(m2, _norm_excess(n)), 1e-11),
        _check("F_opnorm", f_norm, n * n / 14.0),
        _check("M3_opnorm", float(singular_values(m3)[0]), 1.0 / 14.0),
        _check("M4_opnorm", f_norm / (4.0 * n ** 3), 1.0 / 56.0),
        _check("M_sum_opnorm", float(singular_values(m1 + m2 + m3 + m4)[0]), 1.0),
        _check("E_maxnorm_err", abs(float(np.max(np.abs(e).sum(axis=1))) - n / 4.0), 0.0),
        _check("F_entry_max", float(np.max(np.abs(f))), 2.0 * n / 7.0),
    )
    return CertificateReport("inverse_hermitian_part_certificate", n, checks)


@dataclass(frozen=True)
class ScalingRow:
    n: int
    eps: float      # 1/cos(pi/n) - 1, the radius excess
    delta: float    # ||A_n|| - 1, the norm excess
    w: float        # numerical radius of A_n
    w_inv: float    # numerical radius of A_n^-1


@dataclass(frozen=True)
class ScalingTable:
    rows: tuple[ScalingRow, ...]
    slope: float    # least-squares slope of log(delta) against log(eps)

    def failures(self) -> list[str]:
        """Rows off the norm-excess identity by more than 1e-11 or with a
        radius above 1/cos(pi/n) by more than 1e-8, one message per check."""
        failures = []
        for row in self.rows:
            if abs(row.delta - _norm_excess(row.n)) > 1e-11:
                failures.append(f"norm excess identity at n={row.n}")
            for name, w in (("w", row.w), ("w_inv", row.w_inv)):
                if w > 1.0 + row.eps + 1e-8:
                    failures.append(f"{name} bound at n={row.n}")
        return failures


def family_radii(fam: ExtremalFamily,
                 tol: float) -> tuple[RadiusEstimate, RadiusEstimate]:
    """Certified numerical radii of A and A^-1, each swept over one period.

    P Delta rotates A by e^{2 i pi/n} and hence A^-1 by e^{-2 i pi/n};
    numerical_radius takes P Delta as its signed permutation (perm, signs),
    measures each claim and folds the residual into the gap.
    """
    perm, signs = _signed_shift(fam.n)
    w = numerical_radius(fam.A, tol=tol, rotation=(perm, signs, fam.n))
    w_inv = numerical_radius(fam._a_inv, tol=tol, rotation=(perm, signs, -fam.n))
    return w, w_inv


def verify(n: int, tol: float) -> list[CertificateReport]:
    """Build the member for n and run every certificate on it.

    Besides the four certificate reports it checks the rotation residual of
    check_symmetry against 1e-13 with no slack, and the family radii of A and
    A^-1, swept to `tol`, against 1/cos(pi/n) with slack 1e-8.
    """
    fam = build(n)
    residual = check_symmetry(fam)
    cos_bound = 1.0 / np.cos(np.pi / n)
    w, w_inv = family_radii(fam, tol)
    return [
        CertificateReport("rotation_symmetry", fam.n, (
            _check("conjugation_residual", residual, 1e-13, slack=0.0),)),
        check_norm(fam),
        check_real_parts(fam),
        certificate_31(fam),
        certificate_32(fam),
        CertificateReport("radius_bound", fam.n, (
            _check("w", w.value, cos_bound, slack=1e-8),
            _check("w_inv", w_inv.value, cos_bound, slack=1e-8))),
    ]


def _scaling_row(n: int, radius_tol: float) -> ScalingRow:
    fam = build(n)
    eps = 1.0 / np.cos(np.pi / n) - 1.0
    delta = float(fam._a_sv[0]) - 1.0
    w, w_inv = family_radii(fam, radius_tol)
    return ScalingRow(n=n, eps=float(eps), delta=delta, w=w.value, w_inv=w_inv.value)


def scaling_experiment(k_min: int, k_max: int,
                       radius_tol: float = 1e-6) -> ScalingTable:
    """Tabulate (n, eps, delta, w, w_inv) for n = 8k + 4, k = k_min..k_max.

    The least-squares slope of log(delta) versus log(eps) estimates the decay
    exponent of the norm excess in the radius excess (1/4 asymptotically).
    k_min and k_max must be integers. Rows are listed in ascending n.
    """
    if not all(isinstance(k, (int, np.integer)) for k in (k_min, k_max)):
        raise ValueError(f"k_min and k_max must be integers, got {(k_min, k_max)}")
    if not 1 <= k_min <= k_max:
        raise ValueError("need 1 <= k_min <= k_max")
    ns = [8 * k + 4 for k in range(k_min, k_max + 1)]
    if ns[-1] > MAX_DIM:
        raise ValueError(f"k_max gives n = {ns[-1]} > {MAX_DIM}")
    rows = [_scaling_row(n, radius_tol) for n in ns]
    slope = float("nan")
    if len(rows) >= 2:
        slope = float(np.polyfit(np.log([row.eps for row in rows]),
                                 np.log([row.delta for row in rows]), 1)[0])
    return ScalingTable(tuple(rows), slope)
