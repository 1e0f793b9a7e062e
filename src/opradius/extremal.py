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
    by _bracket_check from the row sums of E, M2 = c E and B and A's SVD,
  * the numerical range is invariant under rotation by 2 pi / n,
  * both Hermitian parts (A + A*)/2 and (A^-1 + (A^-1)*)/2 have norm <= 1,
    via explicit certificate matrices whose norms obey fixed rational bounds,
  * hence the numerical radii of A and A^-1 are at most 1/cos(pi/n) while the
    norm excess ||A|| - 1 = 1/(8 sqrt(n)) decays like the 1/4 power of the
    radius excess; scaling_experiment fits that exponent.

B is a real symmetric circulant, so one real DFT of E's first row gives the
eigenvalues lambda of E and mu = 1 + lambda/(2 n^{3/2}) of B (Davis,
Circulant Matrices, 1979), and from them A^-1 = conj(D) B^-1 conj(D), the norm
||A|| = ||B|| = max mu and certificate_32's F = E^2 B^-1 with its norm, each
a circulant or a maximum of its spectrum. A's SVD, kept for A_vs_B_norm_gap
and criterion 01, and the cot band's norm are computed once per family:
verify runs 1 complex SVD and 3 real SVDs, and a scaling row none.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import _check_count, _signed_conjugate, singular_values
# numerical_radius stays bound here: perfbench's tracer self-test patches it.
from .radii import (RadiusEstimate, _check_tol, _radii, _streamed,
                    numerical_radius)  # noqa: F401

__all__ = [
    "ExtremalFamily", "CertificateCheck", "CertificateReport", "ScalingRow",
    "ScalingTable", "build", "check_symmetry", "check_norm", "check_real_parts",
    "certificate_31", "certificate_32", "family_radii", "verify",
    "scaling_experiment",
]

MAX_DIM = 500


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
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(lambda, mu): the eigenvalues of the circulant E, the real DFT of
        its first row, and of B = I + E/(2 n^{3/2}), in rfft order."""
        lam = np.fft.rfft(self.E[0]).real
        return lam, 1.0 + lam / (2.0 * self.n ** 1.5)

    @cached_property
    def _a_inv(self) -> np.ndarray:
        """A^-1 = conj(D) B^-1 conj(D), B^-1 the circulant with eigenvalues 1/mu."""
        mu = self._spectrum[1]
        if not mu.min() > 0:
            raise np.linalg.LinAlgError(
                f"B must be positive definite, its least eigenvalue is {mu.min():.3e}")
        d = np.diag(self.D).conj()
        return (d[:, None] * _circulant(np.fft.irfft(1.0 / mu, self.n))) * d[None, :]

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
           allowance: float = 1e-10) -> CertificateCheck:
    """Passed iff value <= bound + allowance; the slack is bound - value."""
    value, bound = float(value), float(bound)
    return CertificateCheck(name, value, bound, value <= bound + allowance,
                            bound - value)


def _validate_n(n: int) -> int:
    n = _check_count("n", n, 12, MAX_DIM)
    if (n - 4) % 8 != 0:
        raise ValueError(f"n must be of the form 8k + 4 with k >= 1, got {n}")
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


def _circulant(c: np.ndarray) -> np.ndarray:
    """The read-only circulant C_ij = c[(j - i) mod n], row i the window
    c[n - i:2n - i] of c repeated twice: a strided view, no index array."""
    n = c.size
    return np.lib.stride_tricks.sliding_window_view(np.concatenate([c, c]), n)[n:0:-1]


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


def _bracket_check(name: str, x: np.ndarray, target: float) -> CertificateCheck:
    """| ||X|| - target | <= 1e-11, read as max |r_i - target| over X's row sums
    r_i, which bounds it if X = X^T >= 0 (Perron-Frobenius), else inf."""
    symmetric = np.array_equal(x, x.T) and np.all(x >= 0)
    err = np.max(np.abs(x.sum(axis=1) - target)) if symmetric else np.inf
    return _check(name, err, 1e-11, 0.0)


def check_norm(fam: ExtremalFamily) -> CertificateReport:
    """Verify ||A|| = ||B|| = 1 + 1/(8 sqrt(n)) and the row-sum eigenvector; the
    norms come from B's row sums and the family's one SVD of A, no other SVD."""
    n = fam.n
    target = 1.0 + _norm_excess(n)
    image = fam.B @ np.ones(n)
    checks = (
        _check("E_row_sum_err", float(np.max(np.abs(fam.E.sum(axis=1) - n // 4))), 0.0, 0.0),
        _check("B_ones_residual", float(np.max(np.abs(image - target))), 1e-13, 0.0),
        _bracket_check("B_norm_err", fam.B, target),
        _bracket_check("A_vs_B_norm_gap", fam.B, fam._a_sv[0]),
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
        _bracket_check("E_opnorm_err", fam.E, n / 4.0),
        _check("M_plus_E_opnorm", fam._m_norm + e_norm * scale, 7.0 / 8.0),
        _check("quad_form_neg_min", -lam_min, 0.0),
    )
    return CertificateReport("hermitian_part_certificate", n, checks)


def certificate_32(fam: ExtremalFamily) -> CertificateReport:
    """Certificate for ||(A^-1 + (A^-1)*)/2|| <= 1.

    Expanding (I + E/(2 n^{3/2}))^-1 splits the quadratic form into four
    pieces M1..M4 built from the band E and the tail F = E^2 (I + E/(2n^{3/2}))^-1;
    their norms obey 3/4, 1/(8 sqrt n), 1/14, 1/56 and sum below 1. F is the
    circulant with the eigenvalues lambda^2/mu >= 0, so its norm is their
    maximum.
    """
    n = fam.n
    scale, weights, m = fam._cot
    e = fam.E.astype(float)
    m1 = -m
    m2 = e * scale
    lam, mu = fam._spectrum
    f_spectrum = lam * lam / mu
    f = _circulant(np.fft.irfft(f_spectrum, n))
    m3 = weights * f / (4.0 * n ** 3)
    m4 = -f / (4.0 * n ** 3)
    f_norm = float(f_spectrum.max())
    checks = (
        _check("M1_opnorm", fam._m_norm, 3.0 / 4.0),
        _bracket_check("M2_opnorm_err", m2, _norm_excess(n)),
        _check("F_opnorm", f_norm, n * n / 14.0),
        _check("M3_opnorm", float(singular_values(m3)[0]), 1.0 / 14.0),
        _check("M4_opnorm", f_norm / (4.0 * n ** 3), 1.0 / 56.0),
        _check("M_sum_opnorm", float(singular_values(m1 + m2 + m3 + m4)[0]), 1.0),
        _check("E_maxnorm_err", abs(float(np.max(np.abs(e).sum(axis=1))) - n / 4.0), 0.0, 0.0),
        _check("F_entry_max", float(np.max(np.abs(f))), 2.0 * n / 7.0),
    )
    return CertificateReport("inverse_hermitian_part_certificate", n, checks)


def _radius_checks(n: int, w: float, w_inv: float) -> tuple[CertificateCheck, ...]:
    """The family radius rule: w(A_n) and w(A_n^-1) <= 1/cos(pi/n) + 1e-8."""
    bound = 1.0 / np.cos(np.pi / n)
    return _check("w", w, bound, 1e-8), _check("w_inv", w_inv, bound, 1e-8)


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
        """One message per failed check of a row: its norm-excess identity,
        then the radius rule of _radius_checks."""
        failures = []
        for row in self.rows:
            if not _check("", abs(row.delta - _norm_excess(row.n)), 1e-11, 0.0).passed:
                failures.append(f"norm excess identity at n={row.n}")
            failures += [f"{c.name} bound at n={row.n}"
                         for c in _radius_checks(row.n, row.w, row.w_inv) if not c.passed]
        return failures


def _claims(n: int) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """The rotation claims on A (order n) and A^-1 (order -n): P Delta
    rotates A by e^{2 i pi/n} and hence A^-1 by e^{-2 i pi/n}."""
    perm, signs = _signed_shift(n)
    return [(perm, signs, n), (perm, signs, -n)]


def family_radii(fam: ExtremalFamily,
                 tol: float) -> tuple[RadiusEstimate, RadiusEstimate]:
    """Certified numerical radii of A and A^-1, each swept over one period.

    One lockstep sweep of the radii engine takes P Delta as the signed
    permutation (perm, signs) of both claims, measures each claim on its own
    matrix and folds its residual into that matrix's gap; each result is bit
    for bit numerical_radius(..., rotation=...) of its matrix.
    """
    w, w_inv = _radii([fam.A, fam._a_inv], 2.0, _check_tol(tol), _claims(fam.n))
    return w, w_inv


def verify(n: int, tol: float) -> list[CertificateReport]:
    """Build the member for n and run every certificate on it.

    Besides the four certificate reports it checks the rotation residual of
    check_symmetry against 1e-13 with no allowance, and the family radii of A
    and A^-1, swept to `tol`, by the rule of _radius_checks.
    """
    fam = build(n)
    residual = check_symmetry(fam)
    w, w_inv = family_radii(fam, tol)
    return [
        CertificateReport("rotation_symmetry", fam.n, (
            _check("conjugation_residual", residual, 1e-13, 0.0),)),
        check_norm(fam),
        check_real_parts(fam),
        certificate_31(fam),
        certificate_32(fam),
        CertificateReport("radius_bound", fam.n,
                          _radius_checks(fam.n, w.value, w_inv.value)),
    ]


def _member(n: int) -> tuple[tuple[int, float, float], list[np.ndarray], list]:
    """The radii job ((n, eps, delta), [A, A^-1], claims) of the member for
    n, its D, E and B dropped; delta = ||B|| - 1 = max mu - 1, as D is
    unitary."""
    fam = build(n)
    eps = 1.0 / np.cos(np.pi / n) - 1.0
    delta = float(fam._spectrum[1].max()) - 1.0
    return (n, float(eps), delta), [fam.A, fam._a_inv], _claims(n)


def scaling_experiment(k_min: int, k_max: int,
                       radius_tol: float = 1e-6) -> ScalingTable:
    """Tabulate (n, eps, delta, w, w_inv) for n = 8k + 4, k = k_min..k_max.

    The least-squares slope of log(delta) versus log(eps) estimates the decay
    exponent of the norm excess in the radius excess (1/4 asymptotically).
    k_min must be an integer >= 1 and k_max one >= k_min whose n is at most
    MAX_DIM, checked before any member is built. Rows are listed in ascending
    n.

    Members are built one at a time, as jobs of (n, eps, delta), A and A^-1
    and their claims, and streamed through the radii's blocks, one lockstep
    sweep each; every radius equals family_radii's of its member bit for
    bit, so the blocks never change a row.
    """
    k_min = _check_count("k_min", k_min, 1)
    k_max = _check_count("k_max", k_max, k_min)
    _validate_n(8 * k_max + 4)
    tol = _check_tol(radius_tol)
    members = map(_member, range(8 * k_min + 4, 8 * k_max + 5, 8))
    rows = [ScalingRow(n=n, eps=eps, delta=delta, w=w.value, w_inv=w_inv.value)
            for (n, eps, delta), (w, w_inv) in _streamed(members, 2.0, tol)]
    slope = float("nan")
    if len(rows) >= 2:
        slope = float(np.polyfit(np.log([row.eps for row in rows]),
                                 np.log([row.delta for row in rows]), 1)[0])
    return ScalingTable(tuple(rows), slope)
