import decimal
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
        # psi_upper at the float root meets 2r to 2 ulp, and lies within one
        # ulp of its 50-digit value, which meets 2r to 2 ulp: the float root
        # is half an ulp from the crossover, and psi - 2r has slope about 12
        # there
        assert abs(bounds.psi_upper(root) - 2.0 * root) <= 2 * np.spacing(2.0 * root)
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            d_r = decimal.Decimal(root)
            x = d_r + (d_r * d_r - 1).sqrt()
            want = x + (x * x - 1).sqrt()
            ulp = np.spacing(2.0 * root)
            assert abs(decimal.Decimal(bounds.psi_upper(root)) - want) <= ulp
            assert abs(want - 2 * d_r) <= 2 * ulp
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
        assert bounds.x_rho(2.0, r) == bounds.x_of_r(r)

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

    @pytest.mark.parametrize("r", [9e76, 1e150, 1e300])
    def test_large_r_stays_finite(self, r):
        # the product under x_rho's square root overflows float64 from r
        # near 1.3e154 on, as r^2 does; the envelopes themselves stay finite
        assert bounds.x_rho(2.0, r) == bounds.x_of_r(r)
        assert bounds.x_rho(1.0, r) == r
        assert bounds.x_of_r(r) == pytest.approx(2.0 * r, rel=1e-15)
        assert bounds.psi_upper(r) == pytest.approx(4.0 * r, rel=1e-15)
        assert bounds.psi_rho_upper(1.5, r) == pytest.approx(3.0 * r, rel=1e-15)

    def test_rho_two_is_the_inline_formula_bit_for_bit(self):
        # X(r) = r + y, y = sqrt((r - 1)(r + 1)), and psi = X + sqrt((X - 1)
        # (X + 1)) with X - 1 = (r - 1) + y, each square root split where
        # its product overflows; x_of_r, lower_witness and psi_upper are
        # x_rho and psi_rho_upper at rho = 2, so each is the inline formula too
        def sqrt_product(u, v):
            square = u * v
            if math.isfinite(square):
                return math.sqrt(square)
            return math.sqrt(u) * math.sqrt(v)

        grid = np.concatenate([1.0 + np.geomspace(1e-15, 3.0, 400),
                               np.geomspace(4.0, 1e300, 400), [1.0, 1.3e154, 1.4e154]])
        for r in map(float, grid):
            y = sqrt_product(r - 1.0, r + 1.0)
            x = r + y
            assert bounds.x_rho(2.0, r) == x
            assert bounds.x_of_r(r) == x
            assert bounds.lower_witness(r)[1] == x
            assert bounds.psi_upper(r) == bounds.psi_rho_upper(2.0, r) == (
                x + sqrt_product((r - 1.0) + y, x + 1.0))

    def test_within_two_ulp_of_a_50_digit_reference(self):
        # X_rho from its closed form in 50-digit decimal, the discriminant
        # q^2 - 4 r^2 factored as (r - 1)(rho r + rho - 2)(q + 2r), on seeded
        # (rho, r) with r - 1 from 1e-13 to 3 and r up to 1e300
        rng = seeded(63, 0)
        rhos = np.concatenate([rng.uniform(1.0, 2.0, 3000), [1.0, 1.0 + 1e-9, 1.5, 2.0]])
        rs = np.concatenate([1.0 + 10.0 ** rng.uniform(-13.0, math.log10(3.0), 1500),
                             10.0 ** rng.uniform(0.0, 300.0, 1500), [1.0, 1.25, 2.0, 1e300]])
        worst = 0.0
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            for rho, r in zip(map(float, rhos), map(float, rs)):
                d_rho, d_r = decimal.Decimal(rho), decimal.Decimal(r)
                q = 2 + d_rho * d_r * d_r - d_rho
                disc = (d_r - 1) * (d_rho * d_r + d_rho - 2) * (q + 2 * d_r)
                want = (q + disc.sqrt()) / (2 * d_r)
                error = abs(decimal.Decimal(bounds.x_rho(rho, r)) - want)
                worst = max(worst, float(error) / math.ulp(float(want)))
        assert worst <= 2.0

    def test_psi_within_four_ulp_of_a_50_digit_reference(self):
        # psi_rho = X + sqrt((X - 1)(X + 1)) from X_rho's closed form in
        # 50-digit decimal, on 40 x 82 seeded (rho, r) with rho = 1 + 1e-9
        # and r - 1 down to 1e-13; X - 1 taken by cancellation was 27,500 ulp
        # off here
        rng = seeded(32, 0)
        rhos = np.concatenate([rng.uniform(1.0, 2.0, 36), [1.0, 1.0 + 1e-9, 1.5, 2.0]])
        rs = np.concatenate([1.0 + 10.0 ** rng.uniform(-13.0, math.log10(3.0), 40),
                             10.0 ** rng.uniform(0.0, 300.0, 38), [1.0, 1.25, 2.0, 1e300]])
        worst, checked = 0.0, 0
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            for rho in map(float, rhos):
                for r in map(float, rs):
                    d_rho, d_r = decimal.Decimal(rho), decimal.Decimal(r)
                    q = 2 + d_rho * d_r * d_r - d_rho
                    disc = (d_r - 1) * (d_rho * d_r + d_rho - 2) * (q + 2 * d_r)
                    x = (q + disc.sqrt()) / (2 * d_r)
                    want = x + ((x - 1) * (x + 1)).sqrt()
                    if want > decimal.Decimal(np.finfo(float).max):
                        continue  # beyond float64: test_values_beyond_float64_raise
                    error = abs(decimal.Decimal(bounds.psi_rho_upper(rho, r)) - want)
                    worst = max(worst, float(error) / math.ulp(float(want)))
                    checked += 1
        assert checked > 3200
        assert worst <= 4.0

    def test_values_beyond_float64_raise(self):
        # psi is about 4r at rho = 2, beyond float64 from r = 4.5e307 on
        for envelope, args in ((bounds.psi_rho_upper, (2.0, 4.5e307)),
                               (bounds.psi_upper, (4.5e307,)),
                               (bounds.x_rho, (2.0, 1.7e308)),
                               (bounds.x_of_r, (1.7e308,))):
            with pytest.raises(ValueError, match="float64 range"):
                envelope(*args)
        assert bounds.psi_rho_upper(2.0, 4.4e307) == pytest.approx(1.76e308, rel=1e-15)

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
        # a float count must not reach numpy's linspace, which raises
        # TypeError, and True would tabulate one row
        for steps in (2.5, True, np.bool_(True)):
            with pytest.raises(ValueError, match="steps must be an integer >= 1"):
                bounds.bound_curve(2.0, 1.0, 2.0, steps)
        assert len(bounds.bound_curve(2.0, 1.0, 2.0, np.int64(3)).rows) == 3

    @pytest.mark.parametrize("r_min, r_max", [(math.nan, 2.0), (1.0, math.nan),
                                              (1.0, math.inf), (math.inf, math.inf)])
    def test_rejects_non_finite_ends(self, r_min, r_max):
        # a NaN end used to tabulate NaN rows, an infinite one NaN steps
        with pytest.raises(ValueError, match="r must be"):
            bounds.bound_curve(2.0, r_min, r_max, 3)
