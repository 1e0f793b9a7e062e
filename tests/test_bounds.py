import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gaussian_matrix, haar_unitary, seeded
from opradius import bounds, linalg
from opradius.radii import numerical_radius, rho_radius

rho_values = st.floats(min_value=1.0, max_value=2.0, allow_nan=False)
r_values = st.floats(min_value=1.0, max_value=3.0, allow_nan=False)


class TestXandPsi:
    def test_x_at_one(self):
        assert bounds.x_of_r(1.0) == 1.0

    def test_x_exact_rational_point(self):
        # r = 5/4 gives sqrt(r^2 - 1) = 3/4 exactly in binary floats
        assert bounds.x_of_r(1.25) == 2.0

    def test_psi_at_one(self):
        assert bounds.psi_upper(1.0) == 1.0

    def test_psi_exact_point(self):
        assert bounds.psi_upper(1.25) == pytest.approx(2.0 + math.sqrt(3.0), abs=1e-15)

    def test_crossover_value(self):
        root = bounds.crossover_radius()
        assert root == pytest.approx(1.0290855, abs=1e-6)
        assert bounds.psi_upper(root) == pytest.approx(2.0 * root, abs=1e-11)
        # the closed form sqrt(2 + sqrt 5)/2 meets 2r to one ulp
        assert abs(bounds.psi_upper(root) - 2.0 * root) <= np.spacing(2.0 * root)
        # at the published constant psi_upper is 2r to about 1e-5
        assert bounds.psi_upper(1.0290855) == pytest.approx(2 * 1.0290855, abs=1e-5)

    def test_monotone_increasing(self):
        rs = np.linspace(1.0, 3.0, 400)
        xs = [bounds.x_of_r(float(r)) for r in rs]
        ps = [bounds.psi_upper(float(r)) for r in rs]
        assert np.all(np.diff(xs) > 1e-12)
        assert np.all(np.diff(ps) > 1e-12)

    def test_rejects_small_r(self):
        with pytest.raises(ValueError, match="r must be"):
            bounds.x_of_r(0.9)
        with pytest.raises(ValueError, match="r must be"):
            bounds.psi_upper(0.0)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_r(self, r):
        with pytest.raises(ValueError, match="r must be"):
            bounds.x_of_r(r)
        with pytest.raises(ValueError, match="r must be"):
            bounds.psi_rho_upper(1.5, r)


class TestXRho:
    @settings(max_examples=100, deadline=None)
    @given(r=r_values)
    def test_reduces_to_x_at_two(self, r):
        assert bounds.x_rho(2.0, r) == pytest.approx(bounds.x_of_r(r), rel=1e-13)

    @settings(max_examples=100, deadline=None)
    @given(r=r_values)
    def test_reduces_to_r_at_one(self, r):
        assert bounds.x_rho(1.0, r) == pytest.approx(r, rel=1e-13)

    @settings(max_examples=100, deadline=None)
    @given(rho=rho_values)
    def test_equals_one_at_r_one(self, rho):
        assert bounds.x_rho(rho, 1.0) == pytest.approx(1.0, abs=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(rho=rho_values, r=r_values)
    def test_psi_rho_at_least_one(self, rho, r):
        assert bounds.psi_rho_upper(rho, r) >= 1.0

    def test_psi_rho_exact_point(self):
        assert bounds.psi_rho_upper(2.0, 1.25) == pytest.approx(
            2.0 + math.sqrt(3.0), abs=1e-14)

    def test_ando_li_endpoint(self):
        assert bounds.psi_rho_upper(1.5, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError, match="rho"):
            bounds.x_rho(2.5, 1.2)
        with pytest.raises(ValueError, match="rho"):
            bounds.psi_rho_upper(0.9, 1.2)


def asymptote(eps, rho):
    """The quartic asymptote that bound_curve tabulates at r = 1 + eps."""
    return bounds.bound_curve(rho, 1.0 + eps, 1.0 + eps, 1).rows[0].asymptotic


class TestAsymptotic:
    def test_zero_eps(self):
        for rho in (1.0, 1.5, 2.0):
            assert asymptote(0.0, rho) == 1.0

    def test_vanishes_at_rho_one(self):
        assert asymptote(1e-3, 1.0) == 1.0

    def test_direct_evaluation(self):
        # the grid sees eps as (1 + 1e-4) - 1, which is 1e-4 only to about 1e-17
        assert asymptote(1e-4, 2.0) == pytest.approx(
            1.0 + (8.0 * ((1.0 + 1e-4) - 1.0)) ** 0.25, abs=1e-15)
        assert asymptote(1e-4, 2.0) == pytest.approx(1.1682, abs=1e-4)

    def test_tracks_psi_upper_to_sqrt_eps(self):
        eps = 1e-4
        gap = bounds.psi_upper(1.0 + eps) - asymptote(eps, 2.0)
        assert 0.0 <= gap <= 5.0 * math.sqrt(eps)

    def test_quartic_rate_limit(self):
        # (psi_upper(1 + eps) - 1) / eps^(1/4) -> 8^(1/4); the cancellation-safe
        # sqrt keeps this meaningful down to eps = 1e-9
        ratios = []
        for exp in range(3, 10):
            eps = 10.0 ** (-exp)
            ratios.append((bounds.psi_upper(1.0 + eps) - 1.0) / eps ** 0.25)
        target = 8.0 ** 0.25
        assert abs(ratios[-1] - target) <= 0.05 * target
        # monotone approach from above
        assert all(a >= b - 1e-12 for a, b in zip(ratios[:-1], ratios[1:]))


class TestLowerWitness:
    def test_r_one(self):
        w, value = bounds.lower_witness(1.0)
        np.testing.assert_array_equal(w, np.array([[1, 0], [0, -1]], dtype=complex))
        assert value == 1.0

    def test_exact_point(self):
        w, value = bounds.lower_witness(1.25)
        np.testing.assert_array_equal(w, np.array([[1, 1.5], [0, -1]], dtype=complex))
        assert value == 2.0

    def test_self_inverse_exact(self):
        for r in (1.0, 1.1, 1.5, 2.0):
            w, _ = bounds.lower_witness(r)
            np.testing.assert_allclose(w @ w, np.eye(2), atol=1e-15)

    def test_witness_radius_and_norm(self):
        for r in (1.05, 1.25, 1.8):
            w, value = bounds.lower_witness(r)
            assert numerical_radius(w, tol=1e-10).value == pytest.approx(r, abs=1e-9)
            assert linalg.singular_values(w)[0] == pytest.approx(value, abs=1e-12)
            assert value == pytest.approx(bounds.x_of_r(r), abs=0.0)

    def test_two_sided_envelope(self):
        for r in np.linspace(1.0, 2.5, 31):
            lower = bounds.lower_witness(float(r))[1]
            assert lower <= bounds.psi_upper(float(r)) + 1e-12
            assert lower <= 2.0 * r or r < bounds.crossover_radius()


class TestMidpointCertificate:
    def test_unitary_equality(self):
        u = haar_unitary(seeded(60, 0), 4)
        rep = bounds.midpoint_certificate(u)
        np.testing.assert_allclose(rep.midpoint, u, atol=1e-12)
        assert rep.bound == pytest.approx(1.0, abs=1e-10)
        assert rep.norm_a == pytest.approx(1.0, abs=1e-12)

    def test_witness_is_tight(self):
        w, _ = bounds.lower_witness(1.25)
        rep = bounds.midpoint_certificate(w)
        np.testing.assert_allclose(rep.midpoint,
                                   np.array([[1, 0.75], [0.75, -1]]), atol=1e-15)
        assert rep.norm_m == pytest.approx(1.25, abs=1e-13)
        assert rep.bound == pytest.approx(2.0, abs=1e-12)
        assert rep.norm_a == pytest.approx(2.0, abs=1e-12)
        assert abs(rep.slack) <= 1e-12

    def test_random_inequality(self):
        for i in range(8):
            rng = seeded(61, i)
            dim = int(rng.integers(2, 9))
            a = gaussian_matrix(rng, dim) + np.eye(dim)
            sv = linalg.singular_values(a)
            if sv[-1] <= 1e-6 * sv[0]:
                continue
            rep = bounds.midpoint_certificate(a)
            assert rep.inverse_norm_m <= 1.0 + 1e-10
            assert rep.slack >= -1e-9

    def test_rejects_singular(self):
        with pytest.raises(np.linalg.LinAlgError):
            bounds.midpoint_certificate(np.zeros((2, 2)))

    def test_one_svd_of_a(self, monkeypatch):
        # A's one SVD serves its inverse and its norm; M takes the other
        a = gaussian_matrix(seeded(62, 0), 5) + np.eye(5)
        want = (a + linalg.inverse(a).conj().T) / 2
        calls = []
        svd = np.linalg.svd

        def counting_svd(m, *args, **kwargs):
            calls.append(m.shape)
            return svd(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        rep = bounds.midpoint_certificate(a)
        assert len(calls) == 2
        assert rep.midpoint.tobytes() == want.tobytes()
        assert rep.norm_a == float(svd(a, compute_uv=False)[0])

    @pytest.mark.parametrize("sv_a, sv_m, message", [
        ([1.0, 1.0], [1.0, 0.5], "midpoint contractivity failed"),
        ([3.0, 1.0], [1.0, 1.0], "midpoint norm bound failed")],
        ids=["contractivity", "norm-bound"])
    def test_failed_inequality_raises(self, sv_a, sv_m, message, monkeypatch):
        # singular values that break either inequality signal a numerical
        # breakdown: ||M^-1|| = 2 > 1, or ||A|| = 3 > ||M|| + sqrt(||M||^2 - 1) = 1
        values = iter([np.array(sv_a), np.array(sv_m)])
        monkeypatch.setattr(bounds, "singular_values", lambda m: next(values))
        with pytest.raises(ArithmeticError, match=message):
            bounds.midpoint_certificate(np.eye(2))


class TestRandomizedEnvelope:
    def test_norm_within_psi_envelope(self):
        # key chain: if w_rho(A) <= r and w_rho(A^-1) <= r then
        # ||A|| <= psi_rho_upper(r); the computed radii are lower bounds, so
        # passing with them is the stricter statement
        for rho in (1.0, 1.5, 2.0):
            for i in range(15):
                rng = seeded(62, i)
                dim = int(rng.integers(2, 9))
                a = gaussian_matrix(rng, dim)
                sv = linalg.singular_values(a)
                if sv[-1] <= 1e-8 * sv[0]:
                    continue
                ainv = linalg.inverse(a)
                if rho == 1.0:
                    w, wi = sv[0], linalg.singular_values(ainv)[0]
                elif rho == 2.0:
                    w = numerical_radius(a, tol=1e-8).value
                    wi = numerical_radius(ainv, tol=1e-8).value
                else:
                    w = rho_radius(a, rho).value
                    wi = rho_radius(ainv, rho).value
                r = max(w, wi, 1.0)
                assert sv[0] <= bounds.psi_rho_upper(rho, r) * (1 + 1e-6)


class TestBoundCurve:
    def test_rows_and_invariants(self):
        curve = bounds.bound_curve(2.0, 1.0, 2.0, 51)
        assert len(curve.rows) == 51
        for row in curve.rows:
            assert row.psi_lower <= row.psi_upper + 1e-12
            assert row.x_value >= 1.0
            assert np.isfinite([row.r, row.x_value, row.psi_upper,
                                row.psi_lower, row.asymptotic]).all()

    def test_lower_envelope_switches_with_rho(self):
        at_two = bounds.bound_curve(2.0, 1.5, 1.5, 1).rows[0]
        assert at_two.psi_lower == pytest.approx(bounds.x_of_r(1.5), abs=1e-14)
        mid = bounds.bound_curve(1.5, 1.5, 1.5, 1).rows[0]
        assert mid.psi_lower == pytest.approx(1.5, abs=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError, match="r_max"):
            bounds.bound_curve(2.0, 1.5, 1.0, 5)
        with pytest.raises(ValueError, match="steps"):
            bounds.bound_curve(2.0, 1.0, 2.0, 0)
        # a float count must not reach numpy's linspace, which raises TypeError
        with pytest.raises(ValueError, match="steps must be an integer"):
            bounds.bound_curve(2.0, 1.0, 2.0, 2.5)
        assert len(bounds.bound_curve(2.0, 1.0, 2.0, np.int64(3)).rows) == 3

    @pytest.mark.parametrize("r_min, r_max", [(math.nan, 2.0), (1.0, math.nan),
                                              (1.0, math.inf), (math.inf, math.inf)])
    def test_rejects_non_finite_ends(self, r_min, r_max):
        # a NaN end used to tabulate NaN rows, an infinite one NaN steps
        with pytest.raises(ValueError, match="r must be"):
            bounds.bound_curve(2.0, r_min, r_max, 3)
