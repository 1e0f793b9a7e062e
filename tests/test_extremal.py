import json
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import perturb
from opradius import extremal, linalg, radii
from opradius.cli import main
from opradius.radii import numerical_radius


def band_count_oracle(n, k, i):
    # brute-force count of j with 3k+2 <= |i-j| <= 5k+2, both 1-based
    return sum(1 for j in range(1, n + 1) if 3 * k + 2 <= abs(i - j) <= 5 * k + 2)


def signed_shift(n):
    """(perm, signs) of P Delta: P e_j = e_{j+1 mod n}, Delta = diag(1, ..., 1, -1)."""
    return (np.arange(n) + 1) % n, np.r_[np.ones(n - 1), -1.0]


def dense_pd(n):
    """P Delta as a dense product of P (p_ij = 1 iff i = j+1 mod n) and Delta."""
    p = np.zeros((n, n))
    p[(np.arange(n) + 1) % n, np.arange(n)] = 1.0
    return p @ np.diag(np.r_[np.ones(n - 1), -1.0])


def dense_symmetry_residual(fam):
    """check_symmetry's residual from the dense products of its definition."""
    pd = dense_pd(fam.n)
    conj = pd.T @ fam.A @ pd
    return float(np.max(np.abs(conj - np.exp(2j * np.pi / fam.n) * fam.A)))


def dense_rotation_slack(a, m):
    """The rotation claim's slack (|m| // 2) ||U* A U - e^{2 pi i/m} A||_F
    from dense products with U = P Delta."""
    pd = dense_pd(a.shape[0])
    return (abs(m) // 2) * float(np.linalg.norm(
        pd.T @ a @ pd - np.exp(2j * np.pi / m) * a))


@pytest.fixture(scope="module")
def fam12():
    return extremal.build(12)


class TestBuild:
    def test_band_combinatorics_n12(self, fam12):
        # k = 1: band is 5 <= |i-j| <= 7
        assert fam12.E[0, 5] == 1   # |1-6| = 5
        assert fam12.E[0, 3] == 0   # |1-4| = 3
        for i in range(1, 13):
            assert band_count_oracle(12, 1, i) == 3
        assert np.all(fam12.E.sum(axis=1) == 3)

    def test_row_sum_identity_all_sizes(self):
        for n in (12, 20, 28, 36, 52):
            fam = extremal.build(n)
            k = (n - 4) // 8
            counts = [band_count_oracle(n, k, i) for i in range(1, n + 1)]
            assert counts == [n // 4] * n
            assert np.all(fam.E.sum(axis=1) == n // 4)
            assert np.all(fam.E.sum(axis=0) == n // 4)
            assert np.array_equal(fam.E, fam.E.T)
            assert np.all(np.diag(fam.E) == 0)

    def test_rejects_bad_n(self):
        for bad in (13, 11, 4, 8, 0, -12, 16):
            with pytest.raises(ValueError, match="8k"):
                extremal.build(bad)
        with pytest.raises(ValueError, match="integer"):
            extremal.build(12.0)
        with pytest.raises(ValueError, match="capped"):
            extremal.build(8 * 63 + 4)

    def test_norm_identity(self, fam12):
        target = 1.0 + 1.0 / (8.0 * math.sqrt(12))
        assert linalg.singular_values(fam12.A)[0] == pytest.approx(target, abs=1e-11)

    def test_entry_formula(self, fam12):
        # A_{ij} = e^{(i+j-1) i pi / n} (delta_ij + e_ij / (2 n^{3/2}))
        n = 12
        i = np.arange(1, n + 1)
        phases = np.exp(1j * np.pi * np.add.outer(i, i - 1) / n)
        expected = phases * (np.eye(n) + fam12.E / (2.0 * n ** 1.5))
        assert np.max(np.abs(fam12.A - expected)) <= 1e-14

    def test_diag_unitary(self, fam12):
        d = np.diag(fam12.D)
        np.testing.assert_allclose(np.abs(d), np.ones(12), atol=1e-15)
        assert np.max(np.abs(fam12.D - np.diag(d))) == 0.0


class TestSymmetry:
    def test_residual_small(self):
        for n in (12, 20):
            assert extremal.check_symmetry(extremal.build(n)) <= 1e-13

    def test_pair_properties(self):
        # the (perm, signs) pair check_symmetry and family_radii use is P Delta
        perm, signs = extremal._signed_shift(12)
        u = np.zeros((12, 12))
        u[perm, np.arange(12)] = signs
        np.testing.assert_array_equal(u, dense_pd(12))
        np.testing.assert_array_equal(u.T @ u, np.eye(12))
        np.testing.assert_array_equal(
            np.linalg.matrix_power(np.abs(u), 12), np.eye(12))

    def test_perturbation_detector(self, fam12):
        bad = perturb(fam12, 0, 1, 1e-3)
        assert extremal.check_symmetry(bad) >= 1e-4

    def test_residual_matches_dense_products(self, fam12):
        # index arithmetic gives the dense definition's residual bit for bit
        for fam in (fam12, extremal.build(100), perturb(fam12, 0, 1, 1e-3)):
            assert (extremal.check_symmetry(fam).hex()
                    == dense_symmetry_residual(fam).hex())

    def test_corrupted_construction_raises(self, fam12):
        e = fam12.E.copy()
        e[0, 1] = e[1, 0] = 1  # no longer a circulant
        with pytest.raises(ArithmeticError, match=r"E-shift residual 1\.000e\+00"):
            extremal.check_symmetry(replace(fam12, E=e))
        d = fam12.D.copy()
        d[3, 3] *= -1  # breaks d_{j+1} = e^{i pi/n} d_j at j = 2 and 3
        with pytest.raises(ArithmeticError,
                           match=r"D-shift residual 2\.000e\+00, E-shift residual 0\.000e\+00"):
            extremal.check_symmetry(replace(fam12, D=d))


class TestNormReport:
    def test_passes(self):
        for n in (12, 36):
            rep = extremal.check_norm(extremal.build(n))
            assert rep.all_pass, rep.failures()

    def test_ones_image_constant(self, fam12):
        image = fam12.B @ np.ones(12)
        assert np.max(np.abs(image - image[0])) <= 1e-14


class TestRealParts:
    def test_passes(self):
        for n in (12, 28):
            rep = extremal.check_real_parts(extremal.build(n))
            assert rep.all_pass, rep.failures()

    def test_polygon_consequence(self, fam12):
        bound = 1.0 / math.cos(math.pi / 12)
        assert numerical_radius(fam12.A, tol=1e-9).value <= bound + 1e-8


class TestCertificates:
    def test_certificate_31_values_n12(self, fam12):
        rep = extremal.certificate_31(fam12)
        by_name = {c.name: c for c in rep.checks}
        assert by_name["M_frobenius_sq"].value <= 9.0 / 32.0
        assert by_name["E_opnorm_err"].value <= 1e-11  # ||E|| = n/4 = 3
        assert by_name["M_plus_E_opnorm"].value <= 7.0 / 8.0
        assert by_name["quad_form_neg_min"].value <= 1e-10
        assert rep.all_pass

    def test_certificate_32_values_n12(self, fam12):
        rep = extremal.certificate_32(fam12)
        by_name = {c.name: c for c in rep.checks}
        assert by_name["M2_opnorm_err"].value <= 1e-11  # ||M2|| = 1/(8 sqrt 12)
        assert by_name["M_sum_opnorm"].value < 1.0
        assert by_name["M1_opnorm"].value <= 0.75
        assert by_name["M3_opnorm"].value <= 1.0 / 14.0
        assert by_name["M4_opnorm"].value <= 1.0 / 56.0
        assert rep.all_pass

    def test_certificate_32_entry_bound_n36(self):
        rep = extremal.certificate_32(extremal.build(36))
        by_name = {c.name: c for c in rep.checks}
        assert by_name["F_entry_max"].value <= 2.0 * 36.0 / 7.0
        assert by_name["F_opnorm"].value <= 36.0 ** 2 / 14.0

    def test_full_grid_all_pass(self):
        for n in (12, 20, 28, 36, 52):
            fam = extremal.build(n)
            for rep in (extremal.check_norm(fam), extremal.check_real_parts(fam),
                        extremal.certificate_31(fam), extremal.certificate_32(fam)):
                assert rep.all_pass, (n, rep.label, rep.failures())

    def test_report_serialization(self, capsys):
        # the CLI renders each report: label, n, all_pass, then its checks
        assert main(["extremal", "verify", "--n", "12", "--format", "json"]) == 0
        reports = {rep["label"]: rep for rep in json.loads(capsys.readouterr().out)["reports"]}
        payload = reports["hermitian_part_certificate"]
        assert list(payload) == ["label", "n", "all_pass", "checks"]
        assert payload["all_pass"] is True and payload["n"] == 12
        assert [c["name"] for c in payload["checks"]] == [
            "M_frobenius_sq", "E_opnorm_err", "M_plus_E_opnorm", "quad_form_neg_min"]
        for check in payload["checks"]:
            assert list(check) == ["name", "value", "bound", "pass", "slack"]
            assert check["pass"] is True


def measured_norm_errors(fam):
    """The identity checks as SVD measurements: name -> (|measured - target|,
    ||X||) for E_opnorm_err, B_norm_err, A_vs_B_norm_gap and M2_opnorm_err,
    and M4_opnorm -> (||M4||, ||M4||)."""
    n = fam.n
    sigma = {}
    e = fam.E.astype(float)
    m2 = e / (2.0 * n ** 1.5)
    m4 = -np.linalg.solve(fam.B, e @ e) / (4.0 * n ** 3)
    for name, x in (("E", e), ("B", fam.B), ("A", fam.A), ("M2", m2), ("M4", m4)):
        sigma[name] = float(np.linalg.svd(x, compute_uv=False)[0])
    excess = 1.0 / (8.0 * math.sqrt(n))
    return {
        "E_opnorm_err": (abs(sigma["E"] - n / 4.0), sigma["E"]),
        "B_norm_err": (abs(sigma["B"] - (1.0 + excess)), sigma["B"]),
        "A_vs_B_norm_gap": (abs(sigma["A"] - sigma["B"]), sigma["B"]),
        "M2_opnorm_err": (abs(sigma["M2"] - excess), sigma["M2"]),
        "M4_opnorm": (sigma["M4"], sigma["M4"]),
    }


def derived_checks(fam):
    reports = (extremal.check_norm(fam), extremal.certificate_31(fam),
               extremal.certificate_32(fam))
    return {c.name: c for rep in reports for c in rep.checks}


class TestDerivedNorms:
    """The norm identities are read from row sums and from the SVDs already
    taken; the SVD measurements they replace are the oracle."""

    @pytest.mark.parametrize("n", [12, 100, 252, 500])
    def test_derived_values_match_svd_measurements(self, n):
        # both sides are exact up to rounding, which stays below 8 n eps ||X||
        fam = extremal.build(n)
        checks = derived_checks(fam)
        for name, (measured, norm) in measured_norm_errors(fam).items():
            rounding = 8 * n * np.finfo(float).eps * norm
            assert abs(checks[name].value - measured) <= rounding, (name, n)
            assert checks[name].passed, (name, n)

    def test_row_sum_off_by_one_fails_e_and_m2(self, fam12):
        e = fam12.E.copy()
        e[0, 0] = 1  # still symmetric and nonnegative; row 0 sums to n/4 + 1
        checks = derived_checks(replace(fam12, E=e))
        assert checks["E_opnorm_err"].value == 1.0
        assert not checks["E_opnorm_err"].passed
        assert not checks["M2_opnorm_err"].passed

    def test_asymmetric_band_with_exact_row_sums_fails(self, fam12):
        # the row-sum bracket holds only for symmetric X, so moving one entry
        # within row 0 keeps every row sum at n/4 and must still fail
        e = fam12.E.copy()
        j_on, j_off = np.flatnonzero(e[0])[0], np.flatnonzero(e[0] == 0)[1]
        e[0, j_on], e[0, j_off] = 0, 1
        assert np.all(e.sum(axis=1) == 3)
        checks = derived_checks(replace(fam12, E=e))
        assert not checks["E_opnorm_err"].passed
        assert not checks["M2_opnorm_err"].passed

    def test_nudged_b_fails_norm_check(self, fam12):
        for pairs in (((0, 1),), ((0, 1), (1, 0))):
            b = fam12.B.copy()
            for i, j in pairs:
                b[i, j] += 1e-9
            checks = derived_checks(replace(fam12, B=b))
            assert not checks["B_norm_err"].passed, pairs
            assert not checks["A_vs_B_norm_gap"].passed, pairs

    def test_factorization_counts(self, monkeypatch):
        # verify takes A's SVD and inverse and the cot band's norm once:
        # 1 complex SVD, 4 real SVDs and 1 inv; a scaling row takes 1 complex
        # SVD and 1 inv
        counts = {"complex": 0, "real": 0, "inv": 0}
        svd, inv = np.linalg.svd, np.linalg.inv

        def counting_svd(a, *args, **kwargs):
            counts["complex" if np.iscomplexobj(a) else "real"] += 1
            return svd(a, *args, **kwargs)

        def counting_inv(a, *args, **kwargs):
            counts["inv"] += 1
            return inv(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        extremal.verify(100, 1e-8)
        assert counts == {"complex": 1, "real": 4, "inv": 1}
        counts.update(complex=0, real=0, inv=0)
        extremal.scaling_experiment(1, 3)
        assert counts == {"complex": 3, "real": 0, "inv": 3}


class TestScaling:
    def test_small_run_rows_and_slope(self):
        table = extremal.scaling_experiment(1, 3)
        assert [row.n for row in table.rows] == [12, 20, 28]
        for row in table.rows:
            assert row.delta == pytest.approx(1.0 / (8.0 * math.sqrt(row.n)), abs=1e-11)
            assert row.eps == pytest.approx(1.0 / math.cos(math.pi / row.n) - 1.0,
                                            abs=1e-15)
            assert row.w <= 1.0 + row.eps + 1e-8
            assert row.w_inv <= 1.0 + row.eps + 1e-8
        # slope against the closed-form oracle over the same n values
        ns = np.array([row.n for row in table.rows], dtype=float)
        oracle = np.polyfit(np.log(1.0 / np.cos(np.pi / ns) - 1.0),
                            np.log(1.0 / (8.0 * np.sqrt(ns))), 1)[0]
        assert table.slope == pytest.approx(oracle, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError, match="k_min"):
            extremal.scaling_experiment(0, 3)
        with pytest.raises(ValueError, match="k_min"):
            extremal.scaling_experiment(4, 3)
        with pytest.raises(ValueError, match="> 500"):
            extremal.scaling_experiment(1, 80)
        # a float k must not reach range(), which raises TypeError
        for ks in [(1.5, 2), (1, 2.0)]:
            with pytest.raises(ValueError, match="must be integers"):
                extremal.scaling_experiment(*ks)


def assert_same_estimate(got, want):
    assert got.value == want.value
    assert got.tolerance == want.tolerance
    np.testing.assert_array_equal(got.witness, want.witness)


@pytest.fixture(scope="module")
def shift12():
    return signed_shift(12)


class TestFamilyRadii:
    def test_one_period_matches_full_circle(self):
        tol = 1e-9
        for n in (12, 20, 28, 36, 52):
            fam = extremal.build(n)
            for period, matrix in zip(extremal.family_radii(fam, tol),
                                      (fam.A, linalg.inverse(fam.A))):
                full = numerical_radius(matrix, tol=tol)
                assert period.tolerance <= tol and full.tolerance <= tol
                assert abs(period.value - full.value) <= period.tolerance + full.tolerance

    def test_one_interval_per_period(self):
        # a period of width 2 pi/n <= pi/6 is one coarse interval: its two
        # ends and one vertex split certify every member at tol 1e-6
        tol = 1e-6
        for k in range(1, 19):
            fam = extremal.build(8 * k + 4)
            for period, matrix in zip(extremal.family_radii(fam, tol),
                                      (fam.A, linalg.inverse(fam.A))):
                assert period.evaluations == 3
                assert period.tolerance <= tol
                full = numerical_radius(matrix, tol=1e-9)
                assert full.value <= period.value + period.tolerance
                assert period.value <= full.value + full.tolerance

    def test_order_three_claim_starts_from_three_intervals(self, monkeypatch):
        # diag(1, w, w^2) C, C circulant, is rotated by w = e^{2 pi i/3} under
        # the cyclic shift; the period 2 pi/3 starts from 3 intervals, 4 angles
        rng = np.random.default_rng(2011)
        row = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        omega = np.exp(2j * np.pi / 3)
        a = np.diag(omega ** np.arange(3)) @ np.array([np.roll(row, j)
                                                       for j in range(3)])
        rotation = (np.array([1, 2, 0]), np.ones(3), 3)
        assert radii._rotation_slack(a, rotation)[1] <= 1e-14
        full = numerical_radius(a, tol=1e-12)
        sizes = []
        top_eigenvalues = radii._top_eigenvalues

        def spy(build, dim, owner, thetas):
            sizes.append(thetas.size)
            return top_eigenvalues(build, dim, owner, thetas)

        monkeypatch.setattr(radii, "_top_eigenvalues", spy)
        tol = 1e-9
        est = numerical_radius(a, tol, rotation=rotation)
        assert sizes[0] == 4
        assert est.tolerance <= tol
        assert est.value - 1e-12 <= full.value <= est.value + est.tolerance + 1e-12

    def test_gap_includes_residual_slack(self, fam12, shift12):
        # a claim off by ~7e-4 gives slack 6 * 7e-4 <= tol/2, so it is used;
        # at tol 1e-2 one split of the period's single interval certifies
        bad = perturb(fam12, 0, 1, 5e-4)
        slack = dense_rotation_slack(bad.A, 12)
        assert 3e-3 < slack <= 5e-3
        est = numerical_radius(bad.A, tol=1e-2, rotation=(*shift12, 12))
        assert slack <= est.tolerance <= 1e-2
        assert est.value + est.tolerance >= numerical_radius(bad.A, tol=1e-12).value

    def test_perturbed_claim_falls_back_to_full_circle(self, fam12, shift12):
        bad = perturb(fam12, 0, 1, 1e-3)
        got = numerical_radius(bad.A, tol=1e-9, rotation=(*shift12, 12))
        assert_same_estimate(got, numerical_radius(bad.A, tol=1e-9))

    def test_wrong_direction_falls_back_to_full_circle(self, fam12, shift12):
        ainv = linalg.inverse(fam12.A)
        got = numerical_radius(ainv, tol=1e-9, rotation=(*shift12, 12))
        assert_same_estimate(got, numerical_radius(ainv, tol=1e-9))

    def test_slack_matches_dense_products(self, fam12, monkeypatch):
        # the index-arithmetic slack of family_radii's claims on A (order n)
        # and A^-1 (order -n) equals the dense-product one bit for bit
        slacks = []
        rotation_slack = radii._rotation_slack

        def spy(a, rotation):
            order, slack = rotation_slack(a, rotation)
            slacks.append((a, rotation[2], slack))
            return order, slack

        monkeypatch.setattr(radii, "_rotation_slack", spy)
        for fam in (fam12, extremal.build(100), perturb(fam12, 0, 1, 1e-3)):
            slacks.clear()
            extremal.family_radii(fam, 1e-8)
            assert [m for _, m, _ in slacks] == [fam.n, -fam.n]
            np.testing.assert_array_equal(slacks[1][0], linalg.inverse(fam.A))
            for a, m, slack in slacks:
                assert slack.hex() == dense_rotation_slack(a, m).hex()

    def test_rejects_bad_rotation(self, fam12, shift12):
        perm, signs = shift12
        with pytest.raises(ValueError, match="permutation"):
            numerical_radius(fam12.A, rotation=(perm[:3], signs[:3], 12))
        with pytest.raises(ValueError, match="nonzero integer"):
            numerical_radius(fam12.A, rotation=(perm, signs, 0))
        # the dense form (U, m) is named as the wrong form, not unpacked
        u = np.eye(12)[perm] * signs
        with pytest.raises(ValueError, match=r"\(perm, signs, m\), got 2"):
            numerical_radius(fam12.A, rotation=(u, 12))
        # the claim is checked before a zero matrix is answered
        with pytest.raises(ValueError, match="permutation"):
            numerical_radius(np.zeros((3, 3)), rotation=([1, 0], [1, 1], 3))
        # a claim is a signed permutation: signs exactly +-1, perm one-to-one
        for bad_signs in (2 * signs, np.r_[signs[:-1], 0.5], np.r_[signs[:-1], 1j],
                          signs[:-1]):
            with pytest.raises(ValueError, match=r"\+1 or -1"):
                numerical_radius(fam12.A, rotation=(perm, bad_signs, 12))
        repeated = perm.copy()
        repeated[3] = repeated[4]
        for bad_perm in (repeated, perm + 1, perm.astype(float), perm[::2]):
            with pytest.raises(ValueError, match="permutation of range"):
                numerical_radius(fam12.A, rotation=(bad_perm, signs, 12))

    def test_non_unitary_claim_cannot_be_stated(self):
        # U* A U = omega A holds to rounding for the cyclic shift with its
        # columns scaled by sqrt(1/3), sqrt(6), sqrt(1/2), but that U is not
        # unitary and the radius it would certify on one period is 1, not 3.
        # As a signed permutation the scaling cannot be stated, and the valid
        # signed-shift claim is false, so the full circle is swept.
        omega = np.exp(2j * np.pi / 3)
        a = np.diag([1.0, 3.0 * omega, omega ** 2 / 2])
        perm = np.array([1, 2, 0])
        u = np.zeros((3, 3))
        u[perm, np.arange(3)] = np.sqrt([1 / 3, 6, 1 / 2])
        assert np.linalg.norm(u.T @ a @ u - omega * a) <= 1e-14
        with pytest.raises(ValueError, match=r"\+1 or -1"):
            numerical_radius(a, 1e-9, rotation=(perm, u[perm, np.arange(3)], 3))
        tol = 1e-9
        got = numerical_radius(a, tol, rotation=(perm, np.ones(3), 3))
        assert_same_estimate(got, numerical_radius(a, tol))
        assert got.tolerance <= tol and abs(got.value - 3.0) <= tol
