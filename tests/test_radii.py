import numpy as np
import pytest

from conftest import gaussian_matrix, seeded
from opradius import linalg, radii
from opradius.extremal import build, symmetry_pair
from opradius.radii import (numerical_radius, range_boundary, rho_radius,
                            sphere_maximize, spectral_radius, support_points)

NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
WITNESS = np.array([[1.0, 1.5], [0.0, -1.0]], dtype=complex)


def nilpotent_rho_oracle(rho, grid=200001):
    # brute-force sphere maximum for the 2x2 nilpotent: with |h1|^2 = 1 - x,
    # |h2|^2 = x the objective depends only on x in [0, 1]
    a = 1.0 - 1.0 / rho
    b = 2.0 / rho - 1.0
    x = np.linspace(0.0, 1.0, grid)
    t = np.sqrt(x * (1.0 - x))
    g = a * t + np.sqrt((a * t) ** 2 + b * x)
    return float(g.max())


class TestNumericalRadius:
    def test_nilpotent(self):
        est = numerical_radius(NILPOTENT)
        assert est.value == pytest.approx(0.5, abs=1e-10)
        assert est.exact

    def test_witness(self):
        est = numerical_radius(WITNESS)
        assert est.value == pytest.approx(1.25, abs=1e-9)
        assert est.tolerance <= 1e-9
        # the witness vector attains the reported value
        q = est.witness.conj() @ (WITNESS @ est.witness)
        assert abs(q) == pytest.approx(est.value, abs=1e-12)
        assert np.linalg.norm(est.witness) == pytest.approx(1.0, abs=1e-12)

    def test_family_polygon_bound(self):
        a = build(12).A
        est = numerical_radius(a, tol=1e-9)
        assert est.value <= 1.0 / np.cos(np.pi / 12) + 1e-9

    def test_zero_matrix(self):
        est = numerical_radius(np.zeros((3, 3)))
        assert est.value == 0.0 and est.witness is None and est.exact

    def test_norm_equivalence(self):
        # w(A) <= ||A|| <= 2 w(A)
        for i in range(10):
            rng = seeded(42, i)
            dim = int(rng.integers(2, 9))
            a = gaussian_matrix(rng, dim)
            w = numerical_radius(a, tol=1e-9).value
            nrm = linalg.singular_values(a)[0]
            assert w <= nrm + 1e-9
            assert nrm <= 2.0 * w + 1e-9

    def test_scale_equivariance(self):
        rng = seeded(43, 0)
        a = gaussian_matrix(rng, 5)
        w = numerical_radius(a, tol=1e-12).value
        for c in (0.5, 3.0, 17.0):
            wc = numerical_radius(c * a, tol=1e-12).value
            assert abs(wc - c * w) <= 1e-10

    def test_certified_gap_respects_tol(self):
        rng = seeded(44, 0)
        a = gaussian_matrix(rng, 6)
        for tol in (1e-4, 1e-8, 1e-11):
            est = numerical_radius(a, tol=tol)
            assert est.tolerance <= tol

    def test_tol_out_of_range(self):
        with pytest.raises(ValueError, match="tol"):
            numerical_radius(NILPOTENT, tol=1.0)
        with pytest.raises(ValueError, match="tol"):
            numerical_radius(NILPOTENT, tol=1e-13)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            numerical_radius(np.array([[np.nan, 0], [0, 0]]))

    def test_chunked_batches_match_one_batch(self, monkeypatch):
        a = gaussian_matrix(seeded(45, 0), 6)
        thetas = 2 * np.pi * np.arange(37) / 37
        values = radii._support_values(a, thetas)
        points = support_points(a, thetas)
        est = numerical_radius(a, tol=1e-10)
        # three 6 x 6 complex matrices per batch
        monkeypatch.setattr(radii, "_BATCH_BYTES", 3 * a.nbytes)
        np.testing.assert_array_equal(radii._support_values(a, thetas), values)
        assert support_points(a, thetas) == points
        chunked = numerical_radius(a, tol=1e-10)
        assert (chunked.value, chunked.tolerance) == (est.value, est.tolerance)
        np.testing.assert_array_equal(chunked.witness, est.witness)


class TestRhoRadius:
    def test_identity_any_rho(self):
        for rho in (1.0, 1.3, 1.7, 2.0):
            est = rho_radius(np.eye(3), rho)
            assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_nilpotent_intermediate_against_grid_oracle(self):
        oracle = nilpotent_rho_oracle(1.5)
        assert oracle == pytest.approx(2.0 / 3.0, abs=1e-9)
        est = rho_radius(NILPOTENT, 1.5)
        assert est.value == pytest.approx(oracle, abs=1e-6)
        assert est.exact

    def test_nilpotent_grid(self):
        for rho in (1.0, 1.25, 1.5, 1.75, 2.0):
            est = rho_radius(NILPOTENT, rho)
            assert est.value == pytest.approx(1.0 / rho, abs=1e-6)

    def test_rho_one_is_operator_norm(self):
        for i in range(5):
            rng = seeded(45, i)
            a = gaussian_matrix(rng, int(rng.integers(2, 8)))
            est = rho_radius(a, 1.0)
            assert est.exact
            assert est.value == pytest.approx(linalg.singular_values(a)[0], abs=1e-12)

    def test_rho_two_is_numerical_radius(self):
        est = rho_radius(WITNESS, 2.0)
        assert est.exact
        assert est.value == pytest.approx(1.25, abs=1e-8)

    def test_monotone_in_rho(self):
        grid = (1.0, 1.25, 1.5, 1.75, 2.0)
        for i in range(6):
            rng = seeded(46, i)
            a = gaussian_matrix(rng, int(rng.integers(2, 9)))
            values = [rho_radius(a, rho, tol=1e-8).value for rho in grid]
            for lo, hi in zip(values[1:], values[:-1]):
                assert lo <= hi + 1e-6

    def test_triangle_inequality_spot(self):
        for rho in (1.25, 1.5, 1.75):
            for i in range(4):
                rng = seeded(47, i)
                dim = int(rng.integers(2, 7))
                a = gaussian_matrix(rng, dim)
                b = gaussian_matrix(rng, dim)
                wab = rho_radius(a + b, rho).value
                assert wab <= rho_radius(a, rho).value + rho_radius(b, rho).value + 2e-6

    def test_sandwich_invariant(self):
        # r(A) <= w_rho(A) <= rho ||A||
        for rho in (1.0, 1.5, 2.0):
            for i in range(4):
                rng = seeded(48, i)
                a = gaussian_matrix(rng, int(rng.integers(2, 8)))
                est = rho_radius(a, rho, tol=1e-8)
                assert spectral_radius(a) <= est.value + 1e-6
                assert est.value <= rho * linalg.singular_values(a)[0] + 1e-9

    def test_zero_matrix(self):
        assert rho_radius(np.zeros((2, 2)), 1.5).value == 0.0

    def test_rejects_rho_above_two(self):
        with pytest.raises(ValueError, match="unsupported"):
            rho_radius(NILPOTENT, 2.5)
        with pytest.raises(ValueError, match="unsupported"):
            rho_radius(NILPOTENT, 0.5)


class TestPencilSweep:
    # the rho-radius for 1 < rho < 2 sweeps lambda_max of the 2n x 2n
    # Hermitian linearization K_theta with the certified bisection

    @staticmethod
    def ensemble():
        for i in range(50):
            rng = seeded(51, i)
            a = gaussian_matrix(rng, int(rng.integers(2, 9)))
            yield i, a
            yield i, linalg.inverse(a)

    def test_certified_bound_holds_against_ascent(self):
        for rho in (1.25, 1.5, 1.75):
            for i, a in self.ensemble():
                est = rho_radius(a, rho, tol=1e-8)
                assert est.exact and est.tolerance <= 1e-8
                direct, _ = sphere_maximize(a, rho, restarts=64, seed=2000 + i)
                assert direct <= est.value + est.tolerance + 1e-12
                assert abs(direct - est.value) <= 1e-6

    def test_witness_attains_value(self):
        a = gaussian_matrix(seeded(52, 0), 5)
        for rho in (1.25, 1.5, 1.75):
            est = rho_radius(a, rho, tol=1e-10)
            assert np.linalg.norm(est.witness) == pytest.approx(1.0, abs=1e-12)
            h = est.witness[None, :]
            g = radii._sphere_objective(a, h, 1 - 1 / rho, 2 / rho - 1)[0][0]
            assert g == pytest.approx(est.value, abs=1e-12)

    def test_nilpotent(self):
        for rho in (1.25, 1.5, 1.75):
            est = rho_radius(NILPOTENT, rho, tol=1e-9)
            assert est.exact and est.tolerance <= 1e-9
            assert est.value == pytest.approx(1.0 / rho, abs=1e-9)

    def test_continuous_at_both_ends(self):
        for i in range(5):
            a = gaussian_matrix(seeded(53, i), 2 + i)
            near_one = rho_radius(a, 1.0 + 1e-9, tol=1e-8).value
            assert near_one == pytest.approx(linalg.singular_values(a)[0], abs=1e-6)
            near_two = rho_radius(a, 2.0 - 1e-9, tol=1e-8).value
            assert near_two == pytest.approx(numerical_radius(a, tol=1e-8).value,
                                             abs=1e-6)

    def test_default_coarse_grid_matches_fine_grid(self):
        tol = 1e-8
        for i in range(10):
            rng = seeded(54, i)
            a = gaussian_matrix(rng, int(rng.integers(2, 9)))
            fine = numerical_radius(a, tol=tol, coarse=1024)
            default = numerical_radius(a, tol=tol)
            assert default.tolerance <= tol
            assert abs(default.value - fine.value) <= tol
        for n in (12, 36, 100):
            a = build(n).A
            pair = symmetry_pair(n)
            rotation = (pair.P @ pair.Delta, n)
            fine = numerical_radius(a, tol=tol, coarse=1024, rotation=rotation)
            default = numerical_radius(a, tol=tol, rotation=rotation)
            assert default.tolerance <= tol
            assert abs(default.value - fine.value) <= tol

    def test_chunked_batches_match_one_batch(self, monkeypatch):
        a = gaussian_matrix(seeded(55, 0), 6)
        est = rho_radius(a, 1.5, tol=1e-10)
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def spy(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return eigvalsh(m, *args, **kwargs)

        # three 12 x 12 complex linearizations per batch
        monkeypatch.setattr(radii, "_BATCH_BYTES", 3 * 16 * 12 * 12)
        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        chunked = rho_radius(a, 1.5, tol=1e-10)
        assert (chunked.value, chunked.tolerance) == (est.value, est.tolerance)
        np.testing.assert_array_equal(chunked.witness, est.witness)
        assert shapes and all(s[1:] == (12, 12) and s[0] <= 3 for s in shapes)


class TestSweepVsSphere:
    def test_agreement_on_random_ensemble(self):
        worst = 0.0
        for i in range(25):
            rng = seeded(49, i)
            dim = int(rng.integers(2, 7))
            a = gaussian_matrix(rng, dim)
            sweep = numerical_radius(a, tol=1e-8).value
            direct, vec = sphere_maximize(a, 2.0, restarts=32, seed=1000 + i)
            worst = max(worst, abs(sweep - direct))
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        assert worst <= 1e-6


class TestSpectralRadius:
    def test_diagonal(self):
        assert spectral_radius(np.diag([2j, 1.0])) == pytest.approx(2.0, abs=1e-12)

    def test_nilpotent(self):
        assert spectral_radius(NILPOTENT) == pytest.approx(0.0, abs=1e-8)

    def test_witness(self):
        assert spectral_radius(WITNESS) == pytest.approx(1.0, abs=1e-10)


class TestRangeBoundary:
    def test_identity(self):
        for p in range_boundary(np.eye(3), 16):
            assert p.boundary_point == pytest.approx(1.0, abs=1e-12)

    def test_hermitian_segment(self):
        for p in range_boundary(np.diag([-1.0, 1.0]).astype(complex), 64):
            assert abs(p.boundary_point.imag) <= 1e-9
            assert -1.0 - 1e-9 <= p.boundary_point.real <= 1.0 + 1e-9

    def test_support_point_invariant(self):
        rng = seeded(50, 0)
        a = gaussian_matrix(rng, 5)
        for p in range_boundary(a, 32):
            lhs = (np.exp(1j * p.theta) * p.boundary_point).real
            assert lhs == pytest.approx(p.support_value, abs=1e-9)

    def test_family_rotation_invariance(self):
        # W(A) equals its rotation by 2 pi / n; certified through the support
        # function, which determines the convex set and is numerically stable
        a = build(12).A
        thetas = 2 * np.pi * np.arange(1024) / 1024
        h0 = np.array([p.support_value for p in support_points(a, thetas)])
        h1 = np.array([p.support_value
                       for p in support_points(a, thetas + 2 * np.pi / 12)])
        assert np.max(np.abs(h0 - h1)) <= 1e-13

        # the sampled boundary point sets of A and of e^{i 2 pi/n} A coincide
        # as sets; sampling resolution near eigenvalue crossings limits this
        # comparison to ~1e-5 at 1024 samples
        s = np.array([p.boundary_point for p in range_boundary(a, 1024)])
        t = np.array([p.boundary_point
                      for p in range_boundary(np.exp(2j * np.pi / 12) * a, 1024)])
        d = np.abs(s[:, None] - t[None, :])
        hausdorff = max(d.min(axis=1).max(), d.min(axis=0).max())
        assert hausdorff <= 1e-5

    def test_rejects_few_samples(self):
        with pytest.raises(ValueError, match="samples"):
            range_boundary(np.eye(2), 4)
