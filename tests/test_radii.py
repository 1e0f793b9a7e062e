import numpy as np
import pytest

from conftest import gaussian_matrix, seeded
from opradius import cli, linalg, radii
from opradius.extremal import build, family_radii
from opradius.radii import (numerical_radius, range_boundary, rho_radii,
                            rho_radius, sphere_maximize, spectral_radius,
                            support_points)

NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
WITNESS = np.array([[1.0, 1.5], [0.0, -1.0]], dtype=complex)


def support_values(a, thetas, owner=None):
    """The support function h(theta) = lambda_max(H_theta) on the complex
    path: of one matrix at every angle, or of a stack's matrix owner[i] at
    thetas[i]."""
    if owner is None:
        a, owner = a[None], np.zeros(thetas.size, dtype=np.intp)
    return radii._top_eigenvalues(radii._hermitian_builder(a), a.shape[-1],
                                  owner, thetas)


def complex_symmetric(rng, dim):
    g = gaussian_matrix(rng, dim)
    return (g + g.T) / 2


def unit_skew(rng, dim):
    """A complex skew-symmetric K with ||K||_F = 1: S + e K has skew part
    ||(S + e K) - (S + e K)^T||_F / 2 = e for symmetric S."""
    g = gaussian_matrix(rng, dim)
    return (g - g.T) / np.linalg.norm(g - g.T)


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
        values = support_values(a, thetas)
        points = support_points(a, thetas)
        est = numerical_radius(a, tol=1e-10)
        # three 6 x 6 complex matrices per batch
        monkeypatch.setattr(radii, "_BATCH_BYTES", 3 * a.nbytes)
        np.testing.assert_array_equal(support_values(a, thetas), values)
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
        # the message names the given rho; only rho > 2 is the unsupported
        # regime
        with pytest.raises(ValueError) as above:
            rho_radius(NILPOTENT, 2.5)
        assert str(above.value) == ("rho must lie in [1, 2], got 2.5; "
                                    "the rho > 2 regime is unsupported")
        with pytest.raises(ValueError) as below:
            rho_radius(NILPOTENT, 0.5)
        assert str(below.value) == "rho must lie in [1, 2], got 0.5"


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

    def test_default_coarse_grid_matches_fine_grid(self, monkeypatch):
        # the 16-point default grid against a 1024-point one: refinement
        # makes the result independent of the grid. No radius takes a grid
        # argument, so the defaults are computed first and the fine oracle
        # then patches the module's grid.
        tol = 1e-8
        mats = []
        for i in range(10):
            rng = seeded(54, i)
            mats.append((gaussian_matrix(rng, int(rng.integers(2, 9))), None))
        for n in (12, 36, 100):
            # the family's claim: P Delta as the signed permutation j -> j + 1
            mats.append((build(n).A, ((np.arange(n) + 1) % n,
                                      np.r_[np.ones(n - 1), -1.0], n)))
        # the pencil sweep and the lockstep path
        stack = [gaussian_matrix(seeded(54, 10 + i), 5) for i in range(10)]

        def radii_on_grid():
            return ([numerical_radius(a, tol=tol, rotation=rot) for a, rot in mats]
                    + [rho_radius(a, 1.5, tol=tol) for a in stack]
                    + [est for rho in (1.5, 2.0)
                       for est in rho_radii(stack, rho, tol=tol)])

        defaults = radii_on_grid()
        monkeypatch.setattr(radii, "_COARSE", 1024)
        for default, fine in zip(defaults, radii_on_grid(), strict=True):
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


def reference_sweep(values, tol, coarse):
    """The full-circle sweep of one function, one owner at a time.

    Returns (best, best_theta, gap, evaluations, rounds).
    """
    thetas = 2 * np.pi * np.arange(coarse) / coarse
    vals = values(thetas)
    left, h_left, h_right = thetas, vals, np.roll(vals, -1)
    width = 2 * np.pi / coarse
    k = int(np.argmax(vals))
    best, best_theta = float(vals[k]), float(thetas[k])
    evaluations, rounds = coarse, 0
    for _ in range(radii._MAX_ROUNDS):
        if radii._certified_gap(best, width, 0.0) <= tol:
            break
        threshold = best * np.cos(width / 2) - 1e-12 * max(1.0, abs(best))
        keep = (h_left >= threshold) | (h_right >= threshold)
        left, h_left, h_right = left[keep], h_left[keep], h_right[keep]
        if left.size == 0:
            break
        mid = left + width / 2
        h_mid = values(mid)
        evaluations += mid.size
        rounds += 1
        j = int(np.argmax(h_mid))
        if float(h_mid[j]) > best:
            best, best_theta = float(h_mid[j]), float(mid[j])
        left = np.concatenate([left, mid])
        h_left = np.concatenate([h_left, h_mid])
        h_right = np.concatenate([h_mid, h_right])
        width /= 2
    return best, best_theta, float(radii._certified_gap(best, width, 0.0)), \
        evaluations, rounds


class TestLockstep:
    # rho_radii sweeps a stack of same-size matrices together; every entry
    # must be bit for bit the single-matrix result

    @staticmethod
    def stack():
        mats = []
        for i in range(10):
            a = gaussian_matrix(seeded(56, i), 3)
            mats += [a, linalg.inverse(a)]
        mats.append(np.diag([0.5, -1.0, 2.0]))
        # flat support function: W(N + 0) is a disk about the origin
        mats.append(np.pad(NILPOTENT, ((0, 1), (0, 1))))
        mats.append(np.zeros((3, 3)))
        return np.array(mats, dtype=complex)

    @staticmethod
    def assert_same(got, want):
        fields = ("value", "rho", "tolerance", "exact", "evaluations", "rounds")
        assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
        if want.witness is None:
            assert got.witness is None
        else:
            assert got.witness.tobytes() == want.witness.tobytes()

    @pytest.mark.parametrize("tol", [1e-6, 1e-10])
    def test_engine_matches_one_owner_at_a_time(self, tol):
        mats = self.stack()[:-2]
        sw = radii._sweep(lambda owner, t: support_values(mats, t, owner),
                          len(mats), tol, radii._COARSE)
        for i, a in enumerate(mats):
            want = reference_sweep(lambda t: support_values(a, t), tol,
                                   radii._COARSE)
            got = (sw.best[i], sw.best_theta[i], sw.gap[i], sw.evaluations[i],
                   sw.rounds[i])
            assert got == want

    @pytest.mark.parametrize("rho", [1.0, 1.25, 1.5, 2.0])
    def test_entries_match_single_matrix_sweeps(self, rho):
        mats = self.stack()
        ests = rho_radii(mats, rho, tol=1e-6)
        assert len(ests) == len(mats) == 23
        for a, est in zip(mats, ests):
            self.assert_same(est, rho_radius(a, rho, tol=1e-6))
            if rho == 2.0:
                # numerical_radius is the same pipeline at rho = 2
                self.assert_same(numerical_radius(a, tol=1e-6), est)
        zero = ests[-1]
        assert (zero.value, zero.tolerance, zero.witness) == (0.0, 0.0, None)
        assert zero.evaluations == zero.rounds == 0
        if rho == 1.0:
            assert all(est.evaluations == 0 for est in ests)
        else:
            # the flat support function never prunes and refines longest
            assert ests[-2].evaluations == max(est.evaluations for est in ests)

    def test_real_path_is_decided_per_matrix(self):
        # complex symmetric, near-symmetric just inside and just outside the
        # skew budget tol/2, and Gaussian matrices in one stack
        tol = 1e-6
        mats, real = [], []
        for i in range(4):
            rng = seeded(59, i)
            sym = complex_symmetric(rng, 4)
            k = unit_skew(rng, 4)
            mats += [sym, sym + 0.99 * tol / 2 * k, sym + 1.01 * tol / 2 * k,
                     gaussian_matrix(rng, 4)]
            real += [True, True, False, False]
        ests = rho_radii(mats, 2.0, tol=tol)
        for a, est, on_real_path in zip(mats, ests, real):
            self.assert_same(est, rho_radius(a, 2.0, tol=tol))
            # the real path's witness is a real eigenvector
            assert (not est.witness.imag.any()) == on_real_path

    @pytest.mark.parametrize("rho", [1.5, 2.0])
    def test_chunks_split_and_span_owners(self, rho, monkeypatch):
        mats = self.stack()
        whole = rho_radii(mats, rho, tol=1e-6)
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def spy(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return eigvalsh(m, *args, **kwargs)

        # seven 6 x 6 pencil linearizations or 28 3 x 3 Hermitian parts per
        # chunk; neither divides an owner's 16 coarse angles
        monkeypatch.setattr(radii, "_BATCH_BYTES", 7 * 16 * 6 * 6)
        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        chunked = rho_radii(mats, rho, tol=1e-6)
        for got, want in zip(chunked, whole):
            self.assert_same(got, want)
        cap = 7 if rho < 2 else 28
        assert max(s[0] for s in shapes) == cap
        assert len(shapes) > sum(est.rounds > 0 for est in whole)

    def test_stats_count_the_evaluations(self, monkeypatch):
        a = gaussian_matrix(seeded(57, 0), 4)
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def spy(m, *args, **kwargs):
            sizes.append(np.shape(m)[0])
            return eigvalsh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        est = numerical_radius(a, tol=1e-10)
        # one batch for the coarse grid, then one per refinement round
        assert sizes[0] == radii._COARSE
        assert est.evaluations == sum(sizes)
        assert est.rounds == len(sizes) - 1 > 0

    def test_rejects_bad_stacks(self):
        with pytest.raises(ValueError, match="square"):
            rho_radii(np.zeros((4, 2, 3)), 1.5)
        with pytest.raises(ValueError, match="same size"):
            rho_radii([np.eye(2), np.eye(3)], 1.5)
        with pytest.raises(ValueError, match="at least one"):
            rho_radii([], 1.5)
        with pytest.raises(ValueError, match="unsupported"):
            rho_radii([np.eye(2)], 2.5)


class TestRealPath:
    # complex symmetric owners are swept on real symmetric matrices, with
    # their skew part added to the slack

    @staticmethod
    def cases(tol):
        """Complex symmetric matrices of size 2..8 plus skew perturbations
        up to the budget tol/2. The even ones are normal with a doubly
        repeated eigenvalue of largest modulus and are perturbed inside its
        eigenspace, where the real sweep falls furthest below the support
        function: a copy that leaves the skew part out of the slack fails
        on them."""
        out = []
        for i in range(40):
            rng = seeded(58, i)
            dim = int(rng.integers(2, 9))
            if i % 2:
                sym, k = complex_symmetric(rng, dim), unit_skew(rng, dim)
            else:
                q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
                d = np.diag(gaussian_matrix(rng, dim)).copy()
                phase = d[0] / abs(d[0])
                d[:2] = 1.5 * np.abs(d).max() * phase
                sym = (q * d) @ q.T
                k = 1j * phase * (np.outer(q[:, 0], q[:, 1])
                                  - np.outer(q[:, 1], q[:, 0])) / np.sqrt(2)
            out += [sym + frac * tol / 2 * k for frac in (0.0, 0.5, 0.999)]
        return out

    @pytest.mark.parametrize("tol", [1e-4, 1e-8])
    def test_certificate_holds_against_complex_sweep(self, tol):
        for a in self.cases(tol):
            est = numerical_radius(a, tol=tol)
            assert not est.witness.imag.any()
            ref = radii._sweep(lambda owner, t: support_values(a, t), 1,
                               1e-12, radii._COARSE)
            w = ref.best[0]
            assert est.value - 1e-12 <= w <= est.value + est.tolerance + 1e-12
            assert est.tolerance <= tol
            q = est.witness.conj() @ (a @ est.witness)
            assert abs(q) == pytest.approx(est.value, abs=1e-12)

    def test_kernel_dtypes(self, monkeypatch):
        dtypes = []

        def spy(kernel):
            def call(m, *args, **kwargs):
                dtypes.append(np.asarray(m).dtype)
                return kernel(m, *args, **kwargs)
            return call

        for name in ("eigvalsh", "eigh"):
            monkeypatch.setattr(np.linalg, name, spy(getattr(np.linalg, name)))
        # the family and its inverse are symmetric to rounding
        for n in (12, 100):
            family_radii(build(n), 1e-8)
        assert dtypes and set(dtypes) == {np.dtype(np.float64)}
        dtypes.clear()
        # Gaussian samples are not
        cli.random_test(2, 8, 20, 2.0)
        assert dtypes and set(dtypes) == {np.dtype(np.complex128)}


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
