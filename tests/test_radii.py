import warnings

import numpy as np
import pytest

from conftest import gaussian_matrix, perturb, seeded
from opradius import cli, linalg, radii
from opradius.extremal import build, family_radii
from opradius.radii import (numerical_radius, range_boundary, rho_radii,
                            rho_radius, sphere_maximize, support_points)

NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
WITNESS = np.array([[1.0, 1.5], [0.0, -1.0]], dtype=complex)


def support_values(a, thetas, owner=None):
    """The rows (h(theta), h(theta + pi)) of the support function h(theta) =
    lambda_max(H_theta) on the complex path, read from one eigensolve per
    angle: of one matrix at every angle, or of a stack's matrix owner[i] at
    thetas[i]."""
    if owner is None:
        a, owner = a[None], np.zeros(thetas.size, dtype=np.intp)
    build = radii._rotation_builder(*radii._hermitian_parts(a))
    return radii._top_eigenvalues(build, a.shape[-1], owner, thetas)


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
        with pytest.raises(ValueError, match="tol"):
            numerical_radius(NILPOTENT, tol=float("nan"))

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
                assert np.abs(np.linalg.eigvals(a)).max() <= est.value + 1e-6
                assert est.value <= rho * linalg.singular_values(a)[0] + 1e-9

    def test_zero_matrix(self):
        assert rho_radius(np.zeros((2, 2)), 1.5).value == 0.0

    @pytest.mark.parametrize("rho", [1.0, 1.25, 1.5, 2.0])
    def test_huge_entries_keep_a_finite_radius(self, rho):
        # the witness value g squares ||Ah|| and |<Ah, h>|, which used to
        # overflow to inf; the tolerance is left alone, as the rounding
        # guard's tol/2 cap can leave it a few ulps below 0 at this scale
        est = rho_radius([[1e300, 0], [0, 1]], rho, tol=1e-10)
        assert est.value == pytest.approx(1e300, rel=1e-12)

    @pytest.mark.parametrize("rho", [1.0, 1.25, 1.5, 2.0])
    @pytest.mark.parametrize("a, norm", [
        (np.full((3, 3), 8e307), None), (1e308 * np.eye(2), 1e308),
        ([[1e308, 0], [0, 1]], 1e308), ([[1e300, 0], [0, 1]], 1e300)],
        ids=["full-8e307", "1e308-I", "1e308-corner", "1e300-corner"])
    def test_overflow_raises_one_error_or_stays_finite(self, a, norm, rho):
        # norm is ||A||, None where it overflows (rho = 1 used to return inf);
        # from 1e308 on, every rho raises under the one input limit, where
        # RuntimeWarnings used to precede the error, or eigvalsh fail to
        # converge on the NaN kernels of 1e308 I
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if norm is None or norm == 1e308:
                with pytest.raises(ValueError, match="not finite"):
                    rho_radius(a, rho)
            else:
                est = rho_radius(a, rho)
                assert np.isfinite(est.tolerance)
                assert est.value == pytest.approx(norm, rel=1e-12)

    def test_results_beyond_float64_raise(self):
        # every entry is finite, but 3 x 1.7e308 is not: boundary samples
        # and sphere ascent raise the radii's error, with no overflow warning
        # from scaling back; 1e308 I samples at unit scale and stays finite
        over = np.full((3, 3), 1.7e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite"):
                support_points(over, [0.0, 1.0])
            for rho in (1.5, 2.0):
                with pytest.raises(ValueError, match="not finite"):
                    sphere_maximize(over, rho, restarts=2, iters=3)
            points = support_points(1e308 * np.eye(2), [0.0, np.pi])
        assert [p.support_value for p in points] == [1e308, -1e308]
        assert sphere_maximize(1e300 * np.eye(2), 2.0, restarts=2, iters=3)[0] == 1e300

    @pytest.mark.parametrize("rho", [1.5, 2.0])
    def test_entries_too_large_for_the_kernels_raise(self, rho):
        # (A + A*)/2 overflows, and the sweep's bracket is not finite
        with pytest.raises(ValueError, match="not finite"), np.errstate(all="ignore"):
            rho_radius([[1e308, 0], [0, 1]], rho)

    @pytest.mark.parametrize("tol", [float("nan"), 1.0, 1e-13])
    def test_rejects_tol_out_of_range(self, tol):
        # a NaN tol used to stop the sweep early and report tolerance=nan,
        # and an out-of-range one was clamped without a word
        a = gaussian_matrix(seeded(50, 0), 5)
        with pytest.raises(ValueError, match="tol"):
            rho_radius(a, 1.5, tol=tol)
        with pytest.raises(ValueError, match="tol"):
            rho_radii([a, a], 2.0, tol=tol)

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
        # the 8-point default grid against a 1024-point one: refinement
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

    @pytest.mark.parametrize("dim", [1, 2, 5, 20])
    def test_swept_kernel_matches_the_absolute_value_form(self, dim):
        # the sweep's off-diagonal blocks sqrt(beta) A* and sqrt(beta) A
        # against the independent sqrt(beta) |A| of pencil_kernels: both
        # eliminate to the same pencil, so their spectral ends agree
        rng = seeded(74, dim)
        a = 4 * gaussian_matrix(rng, dim)
        thetas = rng.uniform(0, 2 * np.pi, 16)
        owner = np.zeros(thetas.size, dtype=np.intp)
        bound = 1e-13 * max(1.0, np.linalg.norm(a, 2))
        for rho in (1.1, 1.5, 1.9):
            build = radii._pencil_builder(a[None], 1 - 1 / rho, 2 / rho - 1)
            got = np.linalg.eigvalsh(build(owner, thetas))
            want = np.linalg.eigvalsh(pencil_kernels(a, rho)(thetas))
            for end in (0, -1):
                assert np.max(np.abs(got[:, end] - want[:, end])) <= bound

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

    def test_near_one_is_not_flat(self):
        # u* varies by about (rho - 1) ||A|| and so does its minorant: at rho
        # = 1 + 1e-9 the coarse grid already certifies tol = 1e-8 (16,384
        # evaluations under the cosine minorant)
        rng = np.random.default_rng(2011)
        a = gaussian_matrix(rng, 20)
        est = rho_radius(a, 1 + 1e-9, tol=1e-8)
        assert est.tolerance <= 1e-8
        assert est.evaluations <= 16

    @staticmethod
    def near_the_ends():
        """Seeded complex Gaussians of size 2, 5 and 20 and their inverses."""
        for n in (2, 5, 20):
            a = gaussian_matrix(seeded(75, n), n)
            yield f"gaussian{n}", a
            yield f"inverse{n}", linalg.inverse(a)

    @pytest.mark.parametrize("rho", [1 + 1e-9, 1 + 1e-6, 1.01, 1.9])
    def test_brackets_near_the_ends(self, rho):
        # where the pencil's minorant matters most: near rho = 1 it is almost
        # flat, unlike the cosine, and at rho = 1.9 it is close to, but not,
        # the cosine
        tol = 1e-8
        for i, (label, a) in enumerate(self.near_the_ends()):
            est = rho_radius(a, rho, tol=tol)
            assert est.tolerance <= tol, label
            # w_rho decreases in rho from w_1 = ||A||
            assert est.value <= linalg.singular_values(a)[0] * (1 + 1e-14), label
            direct, _ = sphere_maximize(a, rho, restarts=64, seed=3000 + i)
            assert direct <= est.value + est.tolerance + 1e-12, label


def reference_sweep(values, tol, coarse, order=1):
    """The vertex-rule sweep of one function, one owner at a time: on the
    full circle (order 1) the interval pairs ([l, r], [l + pi, r + pi]) of
    the half circle, else the intervals of the closed period [0, 2 pi/order]
    read at theta only; values(thetas) returns the rows (h(theta), h(theta +
    pi)). The grid's last node is not evaluated: h(pi) and h(2 pi) close the
    half circle, h(0) the period.

    Returns (best, best_theta, gap, evaluations, rounds).
    """
    halves = 2 if order == 1 else 1
    segments = -(-coarse // (order * halves))
    grid = 2 * np.pi / (order * halves) * np.arange(segments + 1) / segments
    vals = values(grid[:-1])[:, :halves]
    # the coarse angles in increasing order; the first largest is best
    circle = vals.T.ravel()
    k = int(np.argmax(circle))
    best = circle[k]
    best_theta = np.concatenate([grid[:-1], grid[:-1] + np.pi][:halves])[k]
    vals = np.vstack([vals, vals[0, ::-1]])
    left, right, h_left, h_right = grid[:-1], grid[1:], vals[:-1], vals[1:]
    evaluations, rounds, bound = segments, 0, -np.inf

    vertex = radii._vertex(0.5, 0.0)

    def bounds():
        guard = min(1e-12 * max(1.0, abs(best)), tol / 2)
        top, offset = map(np.array, zip(*(
            vertex(h_left[:, j], h_right[:, j], right - left) for j in range(halves))))
        # the second half only when its bound is strictly larger
        half, pair = np.argmax(top, axis=0), np.arange(left.size)
        return top[half, pair] + guard, offset[half, pair]

    for _ in range(radii._MAX_ROUNDS):
        top, offset = bounds()
        split = top - best > tol
        bound = max(bound, top[~split].max(initial=-np.inf))
        left, right, h_left, h_right, offset = (
            x[split] for x in (left, right, h_left, h_right, offset))
        if left.size == 0:
            break
        cut = left + offset
        h_cut = values(cut)[:, :halves]
        evaluations += cut.size
        rounds += 1
        circle = h_cut.T.ravel()
        j = int(np.argmax(circle))
        if circle[j] > best:
            best, best_theta = circle[j], np.concatenate([cut, cut + np.pi][:halves])[j]
        left, right = np.concatenate([left, cut]), np.concatenate([cut, right])
        h_left = np.concatenate([h_left, h_cut])
        h_right = np.concatenate([h_cut, h_right])
    else:
        bound = max(bound, bounds()[0].max())
    return best, best_theta, bound - best, evaluations, rounds


def midpoint_sweep(values, tol, coarse=radii._COARSE):
    """Baseline: the uniform-width bisection the vertex rule replaced, on the
    engine's interval pairs ([l, l + d], [l + pi, l + pi + d]); values(thetas)
    returns the rows (h(theta), h(theta + pi)). All intervals share one width
    d; a pair is pruned when the endpoints of both halves lie below best
    cos(d/2), and the sweep stops once best (1/cos(d/2) - 1) <= tol.

    Returns (best, gap, evaluations), evaluations counting rows of values.
    """
    thetas = 2 * np.pi * np.arange(coarse // 2) / coarse
    vals = values(thetas)
    left, h_left = thetas, vals
    h_right = np.vstack([vals[1:], vals[0, ::-1]])
    width = 2 * np.pi / coarse
    best, evaluations = float(vals.max()), thetas.size
    for _ in range(radii._MAX_ROUNDS):
        if best * (1 / np.cos(width / 2) - 1) <= tol:
            break
        threshold = best * np.cos(width / 2) - 1e-12 * max(1.0, abs(best))
        keep = ((h_left >= threshold) | (h_right >= threshold)).any(axis=1)
        left, h_left, h_right = left[keep], h_left[keep], h_right[keep]
        mid = left + width / 2
        h_mid = values(mid)
        evaluations += mid.size
        best = max(best, float(h_mid.max()))
        left = np.concatenate([left, mid])
        h_left = np.concatenate([h_left, h_mid])
        h_right = np.concatenate([h_mid, h_right])
        width /= 2
    return best, best * (1 / np.cos(width / 2) - 1), evaluations


def pencil_kernels(a, rho):
    """thetas -> the stack of linearizations [[2 alpha H_theta, sqrt(beta)
    |A|], [sqrt(beta) |A|, 0]] for 1 < rho < 2, built densely: similar to the
    swept K_theta through the polar factor of A, and built independently of
    it from an SVD."""
    alpha, beta = 1 - 1 / rho, 2 / rho - 1
    _, s, vh = np.linalg.svd(a)
    off = np.sqrt(beta) * (vh.conj().T * s) @ vh
    n = a.shape[0]

    def kernels(thetas):
        k = np.zeros((thetas.size, 2 * n, 2 * n), dtype=complex)
        ph = np.exp(1j * thetas)[:, None, None]
        k[:, :n, :n] = alpha * (ph * a + np.conj(ph) * a.conj().T)
        k[:, :n, n:] = k[:, n:, :n] = off
        return k
    return kernels


def pencil_values(a, rho):
    """thetas -> the rows (lambda_max(K_theta), lambda_max(K_{theta + pi}))
    for 1 < rho < 2, each from its own eigensolve."""
    kernels = pencil_kernels(a, rho)

    def top(thetas):
        return np.linalg.eigvalsh(kernels(thetas))[:, -1]
    return lambda thetas: np.stack([top(thetas), top(thetas + np.pi)], axis=1)


class TestRotationBuilder:
    # every kernel is cos(theta) P + sin(theta) Q for one pair (P, Q)

    @staticmethod
    def case(dim, real):
        """A stack of three matrices, 64 random angles and random owners."""
        rng = seeded(71, dim)
        a = np.array([gaussian_matrix(rng, dim) for _ in range(3)])
        if real:
            a = np.ascontiguousarray(a.real)
        return a, rng.uniform(0, 2 * np.pi, 64), rng.integers(0, 3, 64)

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("dim", [1, 2, 5, 8, 20])
    def test_hermitian_pair_is_the_rotated_hermitian_part(self, dim, real):
        a, thetas, owner = self.case(dim, real)
        build = radii._rotation_builder(*radii._hermitian_parts(a))
        got = build(owner, thetas)
        assert got.dtype == np.complex128
        np.testing.assert_array_equal(got, got.conj().transpose(0, 2, 1))
        ph = np.exp(1j * thetas)[:, None, None]
        direct = (ph * a[owner] + np.conj(ph) * a[owner].conj().transpose(0, 2, 1)) / 2
        assert np.max(np.abs(got - direct)) <= 1e-15 * np.max(np.abs(a))
        # the pencil writes its top-left block in place
        k = np.zeros((thetas.size, 2 * dim, 2 * dim), dtype=np.complex128)
        build(owner, thetas, out=k[:, :dim, :dim])
        assert k[:, :dim, :dim].tobytes() == got.tobytes()
        assert not k[:, dim:].any() and not k[:, :, dim:].any()

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("dim", [1, 2, 5, 8, 20])
    def test_real_pair_is_cos_re_minus_sin_im_of_the_symmetric_part(self, dim, real):
        a, thetas, owner = self.case(dim, real)
        got = radii._rotation_builder(*radii._real_parts(a))(owner, thetas)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, got.transpose(0, 2, 1))
        sym = (a + a.transpose(0, 2, 1)) / 2
        want = sym.real[owner] * np.cos(thetas)[:, None, None]
        want -= sym.imag[owner] * np.sin(thetas)[:, None, None]
        assert got.tobytes() == want.tobytes()


class TestLockstep:
    # rho_radii sweeps the matrices of each size and dtype together; every
    # entry must be bit for bit the single-matrix result

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
    def mixed():
        """float64 and complex128 matrices of sizes 2 to 5, both dtypes at
        every size, ending like stack() in a flat and a zero matrix."""
        mats = []
        for i in range(7):
            rng = seeded(58, i)
            a = rng.standard_normal((2 + i % 4,) * 2)
            mats += [a, linalg.inverse(a), gaussian_matrix(rng, 2 + (i + 1) % 4)]
        mats.append(np.pad(NILPOTENT.real, ((0, 1), (0, 1))))
        mats.append(np.zeros((4, 4)))
        return mats

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
        # every owner on the full circle, then per-owner orders: full circles
        # interleaved with periods of orders 2 to 9, whose coarse grids hold
        # 4 to 1 intervals
        mixed = np.array([1 if i % 3 == 0 else 2 + i % 8 for i in range(len(mats))])
        for orders in (np.ones(len(mats), dtype=int), mixed):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                sw = radii._sweep(lambda owner, t: support_values(mats, t, owner),
                                  len(mats), tol, radii._vertex(0.5, 0.0), orders)
            for i, a in enumerate(mats):
                want = reference_sweep(lambda t: support_values(a, t), tol,
                                       radii._COARSE, orders[i])
                assert tuple(x[i] for x in sw) == want

    @pytest.mark.parametrize("rho", [1.0, 1.25, 1.5, 2.0])
    def test_entries_match_single_matrix_sweeps(self, rho):
        for mats in (self.stack(), self.mixed()):
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

    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    def test_claims_are_per_owner(self, tol, monkeypatch):
        # one _radii call mixes periods and full circles: the n = 12 member
        # with its order-n claim and its inverse with order -n, a perturbed
        # member whose claim is refused, a Gaussian without a claim, the
        # order-3 circulant with its claim and a zero matrix
        fam = build(12)
        perm, signs = (np.arange(12) + 1) % 12, np.r_[np.ones(11), -1.0]
        rng = np.random.default_rng(2011)
        row = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        circulant = (np.diag(np.exp(2j * np.pi / 3 * np.arange(3)))
                     @ np.array([np.roll(row, j) for j in range(3)]))
        cases = [(fam.A, (perm, signs, 12)),
                 (linalg.inverse(fam.A), (perm, signs, -12)),
                 (perturb(fam, 0, 1, 1e-3).A, (perm, signs, 12)),
                 (gaussian_matrix(seeded(57, 0), 3), None),
                 (circulant, (np.array([1, 2, 0]), np.ones(3), 3)),
                 (np.zeros((3, 3), dtype=complex), None)]
        counts = []
        sweep = radii._sweep

        def spy(values, count, *args, **kwargs):
            counts.append(count)
            return sweep(values, count, *args, **kwargs)

        monkeypatch.setattr(radii, "_sweep", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = radii._radii([a for a, _ in cases], 2.0, tol,
                               [claim for _, claim in cases])
        assert counts == [5]
        for (a, claim), est in zip(cases, got):
            self.assert_same(est, numerical_radius(a, tol, rotation=claim))
        # the refused claim sweeps the full circle, as if it were not made
        self.assert_same(got[2], numerical_radius(cases[2][0], tol))
        # the accepted claims sweep one period of width 2 pi/12 each, from a
        # coarse grid of two angles, not eight
        assert max(got[0].evaluations, got[1].evaluations) < got[2].evaluations

    def test_real_path_is_decided_per_matrix(self, monkeypatch):
        # complex symmetric, near-symmetric just inside and just outside the
        # skew budget tol/2, Gaussian and float64 symmetric matrices of sizes
        # 2 to 5, zero matrices interleaved: records of both rho = 2 kernels
        # in several size and dtype groups, and one sweep for all of them
        tol = 1e-6
        mats, real = [], []
        for i, dim in enumerate(range(2, 6)):
            rng = seeded(59, i)
            sym = complex_symmetric(rng, dim)
            k = unit_skew(rng, dim)
            g = rng.standard_normal((dim, dim))
            mats += [sym, np.zeros((dim, dim)), sym + 0.99 * tol / 2 * k,
                     sym + 1.01 * tol / 2 * k, gaussian_matrix(rng, dim), (g + g.T) / 2]
            real += [True, None, True, False, False, True]
        sweeps = []
        sweep = radii._sweep

        def spy(*args, **kwargs):
            sweeps.append(args[1])
            return sweep(*args, **kwargs)

        monkeypatch.setattr(radii, "_sweep", spy)
        ests = rho_radii(mats, 2.0, tol=tol)
        # every matrix but the four zero ones
        assert sweeps == [20]
        for a, est, on_real_path in zip(mats, ests, real):
            self.assert_same(est, rho_radius(a, 2.0, tol=tol))
            if on_real_path is None:
                assert est.witness is None
            else:
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

        # seven 6 x 6 pencil linearizations or 29 3 x 3 Hermitian parts per
        # chunk; neither is a multiple of an owner's 4 coarse eigensolves
        monkeypatch.setattr(radii, "_BATCH_BYTES", 7 * 16 * 6 * 6 + 16 * 3 * 3)
        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        chunked = rho_radii(mats, rho, tol=1e-6)
        for got, want in zip(chunked, whole):
            self.assert_same(got, want)
        cap = 7 if rho < 2 else 29
        assert max(s[0] for s in shapes) == cap
        assert len(shapes) > sum(est.rounds > 0 for est in whole)

    @pytest.mark.parametrize("rho", [1.5, 2.0])
    def test_one_sweep_per_call(self, rho, monkeypatch):
        # eight size and dtype groups, one of them on both paths at rho = 2,
        # and one lockstep sweep for all of them
        counts = []
        sweep = radii._sweep

        def spy(values, count, *args, **kwargs):
            counts.append(count)
            return sweep(values, count, *args, **kwargs)

        monkeypatch.setattr(radii, "_sweep", spy)
        rho_radii(self.mixed(), rho)
        # every matrix but the zero one
        assert counts == [22]

    @pytest.mark.parametrize("rho", [1.0, 1.5, 2.0])
    def test_blocks_never_change_an_entry(self, rho, monkeypatch):
        mats = self.mixed()
        whole = rho_radii(mats, rho)
        # a zero budget sweeps every matrix in a block of its own
        monkeypatch.setattr(radii, "_BLOCK_BYTES", 0)
        for got, want in zip(rho_radii(mats, rho), whole, strict=True):
            self.assert_same(got, want)

    def test_blocks_hold_the_budget_plus_their_last_job(self, monkeypatch):
        mats = self.mixed()
        budget = 5 * 16 * 3 * 3
        blocks = []
        radii_call = radii._radii

        def spy(block, *args):
            blocks.append([m.nbytes for m in block])
            return radii_call(block, *args)

        monkeypatch.setattr(radii, "_BLOCK_BYTES", budget)
        monkeypatch.setattr(radii, "_radii", spy)
        rho_radii(mats, 2.0)
        assert [n for block in blocks for n in block] == [m.nbytes for m in mats]
        assert len(blocks) > 3
        for block in blocks:
            assert sum(block[:-1]) < budget
        for block in blocks[:-1]:
            assert sum(block) >= budget

    def test_streamed_pulls_no_job_beyond_its_block(self, monkeypatch):
        mats = self.mixed()
        pulled, swept = [], []
        radii_call = radii._radii

        def jobs():
            for i, a in enumerate(mats):
                pulled.append(i)
                yield i, [a], [None]

        def spy(block, *args):
            # every job pulled so far is in this block or an earlier one
            swept.extend(range(len(swept), len(swept) + len(block)))
            assert pulled == swept
            return radii_call(block, *args)

        monkeypatch.setattr(radii, "_BLOCK_BYTES", 5 * 16 * 3 * 3)
        monkeypatch.setattr(radii, "_radii", spy)
        keys = []
        for key, _ in radii._streamed(jobs(), 2.0, 1e-6):
            # a block's results come before its next job is pulled
            assert pulled == swept
            keys.append(key)
        assert keys == pulled == swept == list(range(len(mats)))

    @pytest.mark.parametrize("rho", [1.0, 1.5])
    def test_only_rho_one_takes_an_svd(self, rho, monkeypatch):
        # rho = 1 reads the top singular pair from one stacked SVD per size
        # and dtype; the pencil for 1 < rho < 2 is built from A itself
        mats = self.mixed()
        shapes = []
        svd = np.linalg.svd

        def spy(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return svd(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        rho_radii(mats, rho)
        # every group of mixed() holds a nonzero matrix
        groups = {(m.shape, m.dtype) for m in mats}
        assert len(groups) == 8
        assert len(shapes) == (len(groups) if rho == 1.0 else 0)

    def test_stats_count_the_evaluations(self, monkeypatch):
        a = gaussian_matrix(seeded(57, 0), 4)
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def spy(m, *args, **kwargs):
            sizes.append(np.shape(m)[0])
            return eigvalsh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        est = numerical_radius(a, tol=1e-10)
        # one batch for the coarse grid, one eigensolve per angle pair of
        # the full circle, then one per refinement round
        assert sizes[0] == radii._COARSE // 2
        assert est.evaluations == sum(sizes)
        assert est.rounds == len(sizes) - 1 > 0

    def test_rejects_bad_stacks(self):
        with pytest.raises(ValueError, match="square"):
            rho_radii(np.zeros((4, 2, 3)), 1.5)
        with pytest.raises(ValueError, match="at least one"):
            rho_radii([], 1.5)
        with pytest.raises(ValueError, match="unsupported"):
            rho_radii([np.eye(2)], 2.5)


class TestVertexRule:
    # each interval is bounded by the largest maximum its two endpoint
    # values allow under the minorant, at rho = 2 the vertex of its two
    # support lines, and split where that bound peaks

    @staticmethod
    def bracket_cases():
        """(label, matrix, rotation claim): Gaussian matrices, normal ones
        whose support function has kinks, and the n = 12 family member with
        its rotation claim."""
        for n in (2, 3, 5, 8):
            rng = seeded(60, n)
            yield f"gaussian{n}", gaussian_matrix(rng, n), None
            yield f"normal{n}", np.diag(gaussian_matrix(rng, n)[0]), None
        n = 12
        yield "family12", build(n).A, ((np.arange(n) + 1) % n,
                                       np.r_[np.ones(n - 1), -1.0], n)

    @pytest.mark.parametrize("rho", [1 + 1e-9, 1.25, 1.5, 1.9, 2.0])
    def test_pencil_vertex_of_a_point(self, rho):
        # u*(theta) = |z| m(cos(theta - phi)) for the 1 x 1 matrix [z], phi =
        # -arg z: the extremal case of the pencil's minorant, where the
        # interval bound is |z| itself; at rho = 2, m(c) = max(c, 0) and u*
        # is the support function of the one point z
        alpha, beta = 1 - 1 / rho, 2 / rho - 1
        z, a, d = 1.7 * np.exp(-0.5j), 0.3, 0.4
        phi = -np.angle(z)

        def m(c):
            return alpha * c + np.sqrt((alpha * c) ** 2 + beta)

        thetas = np.linspace(0, 2 * np.pi, 16)
        kernels = radii._pencil_builder(np.array([[[z]]]), alpha, beta)(
            np.zeros(thetas.size, dtype=np.intp), thetas)
        np.testing.assert_allclose(np.linalg.eigvalsh(kernels)[:, -1],
                                   abs(z) * m(np.cos(thetas - phi)), rtol=1e-14)
        vertex = radii._vertex(alpha, beta)

        def bound(a):
            p, q = abs(z) * m(np.cos(a - phi)), abs(z) * m(np.cos(a + d - phi))
            top, offset = vertex(np.array([p]), np.array([q]), np.array([d]))
            return top[0], offset[0], p, q

        for left in (phi - 0.15, phi - 0.2, phi - 0.25, phi - 0.05, phi - 0.39):
            top, offset, _, _ = bound(left)
            assert top == pytest.approx(abs(z), rel=1e-12)
            if d / 4 <= phi - left <= 3 * d / 4:
                # the two constraints cross at a slope of order alpha, which
                # fixes their crossing to rounding / alpha (5.8e-7 at rho =
                # 1 + 1e-9); the bound there is exact whatever the estimate
                assert offset == pytest.approx(phi - left, abs=1e-14 / alpha)
            else:
                # a crossing outside the middle half is clipped into it
                assert offset == (d / 4 if phi - left < d / 4 else 3 * d / 4)
        # phi before the interval pins the maximizer angle to its left end,
        # phi after it to its right end
        md = m(np.cos(d))
        top, offset, p, q = bound(phi + 0.1)
        assert (top, offset) == (q / md, d / 4)
        top, offset, p, q = bound(phi - d - 0.1)
        assert (top, offset) == (p / md, 3 * d / 4)
        # an endpoint value <= 0 leaves no room for the maximizer
        assert vertex(np.array([-0.1]), np.array([1.0]), np.array([d]))[0][0] == -np.inf
        tol = 1e-8
        est = rho_radius([[z]], rho, tol=tol)
        assert abs(est.value - abs(z)) <= tol and est.tolerance <= tol

    def test_cosine_rule_is_the_support_line_vertex(self):
        # at rho = 2 the rule's two constraints cross at the vertex of the
        # support lines Re(e^{i a} z) = p and Re(e^{i (a + d)} z) = q
        # (Johnson 1978): where they cross in the interval, the split offset
        # is the clipped vertex angle bit for bit, and the bound is the
        # vertex modulus up to rounding
        rng = seeded(62, 0)
        size = 200_000
        d = np.pi / 2 * 10 ** -rng.uniform(0, 9, size)
        w = np.exp(rng.uniform(-5, 5, size))
        x = d * rng.uniform(-1, 2, size)
        p, q = w * np.cos(x), w * np.cos(d - x)
        keep = (p > 0) & (q > 0) & (d < np.pi / 2)
        p, q, d = p[keep], q[keep], d[keep]
        top, offset = radii._vertex(0.5, 0.0)(p, q, d)
        sin, cos = np.sin(d), np.cos(d)
        na, nb = q - p * cos, p - q * cos
        cross = (na > 0) & (nb > 0)
        assert size / 4 < cross.sum() < size - size / 4
        angle = np.clip(np.arctan2(na, p * sin), d / 4, 3 * d / 4)
        assert offset[cross].tobytes() == angle[cross].tobytes()
        modulus = np.hypot(p, na / sin)[cross]
        assert np.all(np.abs(top[cross] - modulus) <= 8 * np.spacing(modulus))
        # an end case pins the maximizer angle to one endpoint; its bound
        # never exceeds the larger endpoint value, so without slack it never
        # splits and its offset is never read
        assert np.all(top[~cross] <= np.maximum(p, q)[~cross])
        assert np.array_equal(offset[~cross],
                              np.where(na <= 0, d / 4, 3 * d / 4)[~cross])

    @pytest.mark.parametrize("tol", [1e-4, 1e-8])
    @pytest.mark.parametrize("rho", [1.25, 1.5, 1.9, 2.0])
    def test_brackets_a_tight_baseline_sweep(self, rho, tol):
        # the baseline at tol 1e-12 and the vertex rule at tol bracket each
        # other: value <= ref + gap_ref and ref <= value + tolerance
        for label, a, rotation in self.bracket_cases():
            if rho == 2.0:
                est = numerical_radius(a, tol=tol, rotation=rotation)
                values = lambda t, a=a: support_values(a, t)
            else:
                est = rho_radius(a, rho, tol=tol)
                values = pencil_values(a, rho)
            ref, gap_ref, _ = midpoint_sweep(values, 1e-12)
            assert 0.0 <= est.tolerance <= tol, label
            assert est.value <= ref + gap_ref, label
            assert ref <= est.value + est.tolerance, label

    def test_fewer_evaluations_than_midpoint_rule(self):
        mats = [gaussian_matrix(seeded(61, i), 2 + i % 7) for i in range(20)]
        for tol in (1e-6, 1e-10):
            vertex = sum(numerical_radius(a, tol=tol).evaluations for a in mats)
            midpoint = sum(midpoint_sweep(lambda t, a=a: support_values(a, t), tol)[2]
                           for a in mats)
            assert vertex < midpoint

    def test_flat_support_costs_no_more(self):
        # h is constant for the nilpotent: every vertex sits mid-interval and
        # its bound is the midpoint rule's
        for tol in (1e-6, 1e-8):
            est = numerical_radius(NILPOTENT, tol=tol)
            _, _, midpoint = midpoint_sweep(lambda t: support_values(NILPOTENT, t), tol)
            assert est.evaluations <= midpoint

    def test_round_cap_leaves_the_live_bounds_as_gap(self, monkeypatch):
        # three rounds cannot split the nilpotent's flat support function
        # down to tol: the intervals still live at the cap close the gap,
        # which then exceeds tol but still brackets w_rho = 1/rho
        monkeypatch.setattr(radii, "_MAX_ROUNDS", 3)
        tol = 1e-10
        for est, rho in ((numerical_radius(NILPOTENT, tol=tol), 2.0),
                         (rho_radius(NILPOTENT, 1.5, tol=tol), 1.5)):
            assert est.rounds == 3
            assert est.tolerance > tol
            # the value may sit rounding above w (0.5000000000000001 at rho 2)
            assert est.value - 1e-15 <= 1 / rho <= est.value + est.tolerance


class TestAntipodalPairs:
    # every kernel flips sign at theta + pi: H_{theta+pi} = -H_theta,
    # S_{theta+pi} = -S_theta and K_{theta+pi} = -D K_theta D for D =
    # diag(I, -I), so one eigensolve gives the values at theta and theta + pi;
    # the pencil at rho = 1.5 (alpha = beta = 1/3) is the one the sweep builds

    @pytest.mark.parametrize("dim", [1, 2, 5, 20])
    def test_bottom_eigenvalue_is_the_antipodal_top(self, dim):
        rng = seeded(73, dim)
        a, sym = 4 * gaussian_matrix(rng, dim), 4 * complex_symmetric(rng, dim)
        thetas = rng.uniform(0, 2 * np.pi, 64)
        owner = np.zeros(thetas.size, dtype=np.intp)
        kernels = (
            (a, dim, radii._rotation_builder(*radii._hermitian_parts(a[None]))),
            (sym, dim, radii._rotation_builder(*radii._real_parts(sym[None]))),
            (a, 2 * dim, radii._pencil_builder(a[None], 1 / 3, 1 / 3)),
        )
        for m, size, build in kernels:
            rows = radii._top_eigenvalues(build, size, owner, thetas)
            far = np.linalg.eigvalsh(build(owner, thetas + np.pi))[:, -1]
            near = np.linalg.eigvalsh(build(owner, thetas))[:, -1]
            bound = 1e-13 * max(1.0, np.linalg.norm(m, 2))
            assert np.max(np.abs(rows[:, 1] - far)) <= bound
            np.testing.assert_array_equal(rows[:, 0], near)

    def test_flat_support_halves(self):
        # a disk about 0 never prunes: the pairs halve the evaluations of a
        # full-circle sweep, 262,144 and 32,768 before; the pencil's minorant,
        # flatter than the cosine by rho - 1 = 1/2 near its peak, halves them
        # again at rho = 1.5 (131,072 under the cosine minorant)
        shift = np.eye(20, k=-1)
        for est, want, tol, cost in (
                (numerical_radius(NILPOTENT, tol=1e-10), 0.5, 1e-10, 131_072),
                (rho_radius(NILPOTENT, 1.5, tol=1e-10), 2 / 3, 1e-10, 65_536),
                (numerical_radius(shift, tol=1e-8), np.cos(np.pi / 21), 1e-8,
                 16_384)):
            assert abs(est.value - want) <= tol
            assert est.tolerance <= tol
            assert est.evaluations <= cost


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
            w = radii._sweep(lambda owner, t: support_values(a, t), 1,
                             1e-12, radii._vertex(0.5, 0.0))[0][0]
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

    @pytest.mark.parametrize("thetas", [np.nan, np.inf, [0.0, np.inf]])
    def test_rejects_non_finite_angles(self, thetas):
        # these warned, then blamed the matrix entries
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="support angles must be finite"):
                support_points(np.eye(2), thetas)

    def test_rejects_few_samples(self):
        with pytest.raises(ValueError, match="samples"):
            range_boundary(np.eye(2), 4)

    def test_rejects_non_integer_samples(self):
        # 8.5 angles spaced 2 pi/8.5 would not close the circle
        for samples in (8.5, True):
            with pytest.raises(ValueError, match="samples must be an integer >= 8"):
                range_boundary(np.eye(2), samples)
        assert len(range_boundary(np.eye(2), np.int64(8))) == 8


class TestSphereMaximize:
    def test_rejects_no_restarts(self):
        # restarts=2.5 used to raise TypeError from numpy's sampler
        for restarts in (0, 2.5, True):
            with pytest.raises(ValueError, match="restarts must be an integer >= 1"):
                sphere_maximize(np.eye(2), 2.0, restarts=restarts)
        with pytest.raises(ValueError, match="iters must be an integer >= 0"):
            sphere_maximize(np.eye(2), 2.0, iters=1.5)

    @pytest.mark.parametrize("rho", [0.0, 0.5, 3.0, np.nan])
    def test_rejects_bad_rho(self, rho):
        # rho 0.5 returned 3.0 for a matrix of norm 2.414, rho 3 and NaN
        # warned, then blamed the matrix entries, and rho 0 divided by zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="rho must lie in"):
                sphere_maximize([[1.0, 2.0], [0.0, 1.0]], rho)


class TestUnitScale:
    """Every radius, support sample and oracle runs at unit scale, by an exact
    power of two."""

    BASE = np.array([[1, 2], [0, 1j]])

    @pytest.mark.parametrize("rho", [1.0, 1.25, 1.5, 2.0])
    def test_radii_are_scale_covariant_bit_for_bit(self, rho):
        # w_rho(2^k A) = 2^k w_rho(A) holds in every field: the sweep of
        # 2^k A at tol 2^k tol is that of A at tol, and value and gap scale
        # back exactly, down to a subnormal gap at k = -1000
        mats = [gaussian_matrix(seeded(60, i), 1 + i % 6) for i in range(30)]
        tol = 2.0 ** -27
        claims = [None] * len(mats)
        want = radii._radii(mats, rho, tol, claims)
        differ = []
        for k in (-1000, -40, 3, 900):
            got = radii._radii([2.0 ** k * a for a in mats], rho, 2.0 ** k * tol, claims)
            for i, (g, w) in enumerate(zip(got, want)):
                same = (g.value == np.ldexp(w.value, k)
                        and g.tolerance == np.ldexp(w.tolerance, k)
                        and np.array_equal(g.witness, w.witness)
                        and (g.evaluations, g.rounds) == (w.evaluations, w.rounds))
                if not same:
                    differ.append((k, i))
        assert differ == []

    def test_subnormal_identity(self):
        # the witness value used to divide by a subnormal row scale: two
        # overflow warnings, and a value of 1e-323, twice the radius
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = rho_radius(5e-324 * np.eye(3), 1.5)
        assert est.value == 5e-324

    @pytest.mark.parametrize("rho", [1.25, 1.5, 1.9])
    def test_subnormal_entries_keep_a_bracket(self, rho):
        # complex division by the subnormal row scale used to return inf; the
        # sweep stops on the coarse grid, and its bracket holds the radius
        want = 1e-310 * rho_radius(self.BASE, rho, tol=1e-12).value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = rho_radius(1e-310 * self.BASE, rho)
        assert 0 < est.value <= want * (1 + 1e-9)
        assert est.value + est.tolerance >= want * (1 - 1e-9)
        assert est.tolerance <= 1e-6

    def test_support_points_near_overflow(self):
        # (A + A*)/2 used to overflow: nan support values and two warnings
        thetas = 2 * np.pi * np.arange(8) / 8
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            points = support_points(1e308 * np.eye(2), thetas)
        for t, p in zip(thetas, points):
            assert p.support_value == pytest.approx(1e308 * np.cos(t), rel=1e-12,
                                                    abs=1e293)
            assert p.boundary_point == pytest.approx(1e308, rel=1e-12)

    def test_sphere_maximize_on_subnormal_entries(self):
        want = 1e-310 * rho_radius(self.BASE, 1.5, tol=1e-12).value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, h = sphere_maximize(1e-310 * self.BASE, 1.5)
        assert want * (1 - 1e-6) <= value <= want * (1 + 1e-9)
        assert np.linalg.norm(h) == pytest.approx(1.0)


class TestWitnessSolve:
    """Each radius takes its witness from one shifted solve at the best
    angle, not an eigh; the witness can only raise the sweep's best."""

    @staticmethod
    def swept_best(monkeypatch):
        bests = []
        sweep = radii._sweep

        def spy(*args, **kwargs):
            result = sweep(*args, **kwargs)
            bests.append(result[0].copy())
            return result
        monkeypatch.setattr(radii, "_sweep", spy)
        return bests

    @pytest.mark.parametrize("rho", [2.0, 1.5, 1.25])
    def test_value_is_at_least_best(self, rho, monkeypatch):
        # max|a_ij| in [1/2, 1) keeps unit scale the identity, so the value
        # compares with the sweep's best directly
        bests = self.swept_best(monkeypatch)
        rng = seeded(32, 1)
        mats = [gaussian_matrix(rng, dim) for dim in range(2, 9) for _ in range(6)]
        mats += [complex_symmetric(rng, dim) for dim in range(2, 9)]
        mats += [build(12).A, build(12)._a_inv]
        for a in mats:
            a = 0.75 * a / np.abs(a).max()
            est = rho_radius(a, rho, 1e-8)
            assert est.value >= bests[-1][0]
            assert est.value <= bests[-1][0] + est.tolerance
            assert np.linalg.norm(est.witness) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("c", [0.5, -2.0, 3.0, 0.1, 1.0 / 3.0, 1.1, -7.77,
                                   1e5 / 3.0, 1e-3, 2.0 + 1.0j, 0.3j, -0.6 - 0.8j])
    def test_scalar_matrix_gives_exactly_its_modulus(self, c):
        # every vector is an eigenvector of c I: its witness value is |c| up
        # to rounding, which must not lift the value above |c|
        for dim in range(1, 9):
            assert numerical_radius(c * np.eye(dim), tol=1e-8).value == abs(c), dim
            assert rho_radius(c * np.eye(dim), 1.0).value == abs(c), dim

    def test_diagonal_matrix_gives_its_largest_modulus(self):
        rng = seeded(32, 2)
        for dim in range(2, 21):
            d = rng.uniform(-3.0, 3.0, dim)
            assert numerical_radius(np.diag(d), tol=1e-8).value == np.abs(d).max()

    def test_solve_takes_one_column_per_matrix(self, monkeypatch):
        # numpy before 2.0 reads a b of the stack's ndim as columns and
        # refuses a 1-D b against a stack; b of shape (k, dim, 1) means the
        # same system in every numpy the package supports
        a = gaussian_matrix(seeded(32, 4), 5)
        solve, shapes = np.linalg.solve, []

        def spy(m, b):
            shapes.append((np.shape(m), np.shape(b)))
            return solve(m, b)
        monkeypatch.setattr(np.linalg, "solve", spy)
        for rho in (2.0, 1.5):
            rho_radius(a, rho, 1e-8)
        assert len(shapes) == 2
        for m, b in shapes:
            assert len(m) == 3 and b == m[:-1] + (1,)

    @pytest.mark.parametrize("failure", ["raises", "not finite"])
    def test_failed_solve_takes_eigh(self, failure, monkeypatch):
        a = gaussian_matrix(seeded(32, 3), 5)
        want = {rho: rho_radius(a, rho, 1e-8) for rho in (2.0, 1.5)}
        eigh, attempts, calls = np.linalg.eigh, [], []

        def broken(m, b):
            attempts.append(np.shape(m))
            if failure == "raises":
                raise np.linalg.LinAlgError("Singular matrix")
            return np.full(np.shape(b), np.nan)

        def counted(m, *args, **kwargs):
            calls.append(np.shape(m))
            return eigh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", broken)
        monkeypatch.setattr(np.linalg, "eigh", counted)
        for rho, est in want.items():
            attempts.clear()
            calls.clear()
            got = rho_radius(a, rho, 1e-8)
            assert len(attempts) == len(calls) == 1
            # the same sweep; only the witness may differ, by rounding
            assert (got.evaluations, got.rounds, got.tolerance) == (
                est.evaluations, est.rounds, est.tolerance)
            assert got.value == pytest.approx(est.value, rel=1e-14)
            assert np.linalg.norm(got.witness) == pytest.approx(1.0, abs=1e-15)
