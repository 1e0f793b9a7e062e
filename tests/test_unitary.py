import math

import numpy as np
import pytest

from conftest import gaussian_matrix, haar_unitary, seeded
from opradius import linalg
from opradius.radii import numerical_radius
from opradius.unitary import distance_to_unitaries, stampfli_gap_bound

WITNESS = np.array([[1.0, 1.5], [0.0, -1.0]], dtype=complex)


class TestDistance:
    def test_scaled_identity(self):
        gap = distance_to_unitaries(2.0 * np.eye(3))
        assert gap.distance == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(gap.nearest, np.eye(3), atol=1e-12)

    def test_diagonal(self):
        gap = distance_to_unitaries(np.diag([3.0, 0.5]))
        assert gap.distance == pytest.approx(2.0, abs=1e-12)
        assert gap.norm_excess == pytest.approx(2.0, abs=1e-12)
        assert gap.inverse_excess == pytest.approx(0.5, abs=1e-12)

    def test_witness_from_singular_oracle(self):
        # singular values (2, 1/2) give distance max(2-1, 1-1/2) = 1
        gap = distance_to_unitaries(WITNESS)
        assert gap.distance == pytest.approx(1.0, abs=1e-12)

    def test_unitary_fixed_point(self):
        u = haar_unitary(seeded(80, 0), 5)
        assert distance_to_unitaries(u).distance <= 1e-10

    def test_scalar(self):
        for a in (0.25, -1.75, 1.0 + 1.0j):
            gap = distance_to_unitaries(np.array([[a]]))
            assert gap.distance == pytest.approx(abs(abs(a) - 1.0), abs=1e-12)

    def test_invariants_on_random(self):
        for i in range(8):
            rng = seeded(81, i)
            dim = int(rng.integers(2, 9))
            a = gaussian_matrix(rng, dim) + 0.5 * np.eye(dim)
            sv = linalg.singular_values(a)
            if sv[-1] <= 1e-8 * sv[0]:
                continue
            gap = distance_to_unitaries(a)
            assert gap.distance == pytest.approx(
                max(gap.norm_excess, gap.inverse_excess), abs=1e-10)
            np.testing.assert_allclose(gap.nearest.conj().T @ gap.nearest,
                                       np.eye(dim), atol=1e-10)
            attained = linalg.singular_values(a - gap.nearest)[0]
            assert attained == pytest.approx(gap.distance, abs=1e-9)

    def test_rejects_singular(self):
        with pytest.raises(np.linalg.LinAlgError):
            distance_to_unitaries(np.array([[1, 1], [1, 1]], dtype=complex))


class TestGapBound:
    def test_unitary_endpoint(self):
        assert stampfli_gap_bound(1.0, 1.0, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_exact_point(self):
        # X(5/4) = 2 exactly, so the bound is (2 + sqrt 3) - 1
        assert stampfli_gap_bound(1.25, 1.25, 2.0) == pytest.approx(
            1.0 + math.sqrt(3.0), abs=1e-14)

    def test_intermediate_rho_endpoint(self):
        assert stampfli_gap_bound(1.0, 1.0, 1.5) == pytest.approx(0.0, abs=1e-12)

    def test_uses_larger_radius(self):
        assert stampfli_gap_bound(1.0, 1.25, 2.0) == stampfli_gap_bound(1.25, 1.25, 2.0)

    def test_rejects_small_radii(self):
        with pytest.raises(ValueError, match=">= 1"):
            stampfli_gap_bound(0.5, 1.0, 2.0)

    @pytest.mark.parametrize("w", [math.nan, math.inf])
    def test_rejects_non_finite_radii(self, w):
        # a NaN radius used to give a NaN bound
        with pytest.raises(ValueError, match="r must be"):
            stampfli_gap_bound(w, 1.2)
        with pytest.raises(ValueError, match="r must be"):
            stampfli_gap_bound(1.2, w)

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError, match="rho"):
            stampfli_gap_bound(1.1, 1.1, 2.5)

    def test_headline_chain_on_balanced_ensemble(self):
        # scale A so the matrix and its inverse share the same numerical
        # radius r, then the distance to the unitaries is at most
        # psi_upper(r) - 1
        for i in range(10):
            rng = seeded(82, i)
            dim = int(rng.integers(2, 9))
            a = gaussian_matrix(rng, dim)
            sv = linalg.singular_values(a)
            if sv[-1] <= 1e-8 * sv[0]:
                continue
            w = numerical_radius(a, tol=1e-8).value
            w_inv = numerical_radius(linalg.inverse(a), tol=1e-8).value
            scaled = math.sqrt(w_inv / w) * a
            r = max(1.0, math.sqrt(w * w_inv))
            gap = distance_to_unitaries(scaled)
            assert gap.distance <= stampfli_gap_bound(r, r, 2.0) + 1e-8
