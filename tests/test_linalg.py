import math

import numpy as np
import pytest

from conftest import gaussian_matrix, haar_unitary, seeded
from opradius import linalg
from opradius.extremal import build


def singular_2x2_oracle(a):
    # eigenvalues of A*A from the characteristic polynomial, independent of
    # any eigensolver
    g = a.conj().T @ a
    tr = (g[0, 0] + g[1, 1]).real
    det = (g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]).real
    disc = math.sqrt(max(tr * tr - 4.0 * det, 0.0))
    return (math.sqrt(max((tr + disc) / 2, 0.0)),
            math.sqrt(max((tr - disc) / 2, 0.0)))


WITNESS = np.array([[1.0, 1.5], [0.0, -1.0]], dtype=complex)


class TestAsMatrix:
    def test_real_input_stays_real(self):
        assert linalg.as_matrix([[1, 2], [3, 4]]).dtype == np.float64
        assert linalg.as_matrix(np.eye(2, dtype=complex)).dtype == np.complex128

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            linalg.as_matrix(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            linalg.as_matrix(np.array([[np.inf, 0], [0, 0]]))


class TestSingularValues:
    def test_identity(self):
        np.testing.assert_allclose(linalg.singular_values(np.eye(4)), np.ones(4))

    def test_witness_against_characteristic_oracle(self):
        oracle = singular_2x2_oracle(WITNESS)
        assert oracle == pytest.approx((2.0, 0.5), abs=1e-15)
        np.testing.assert_allclose(linalg.singular_values(WITNESS), oracle, atol=1e-12)

    def test_family_core_norm(self):
        b = build(12).B
        assert linalg.singular_values(b)[0] == pytest.approx(
            1.0 + 1.0 / (8.0 * math.sqrt(12)), abs=1e-12)

    def test_descending_and_nonnegative(self):
        rng = seeded(303, 0)
        sv = linalg.singular_values(gaussian_matrix(rng, 6))
        assert np.all(np.diff(sv) <= 0) and sv[-1] >= 0

    def test_singular_matrix_returns_zero(self):
        sv = linalg.singular_values(np.array([[1, 1], [1, 1]], dtype=complex))
        assert sv[-1] == pytest.approx(0.0, abs=1e-14)

    def test_matches_eigenvalues_on_hpd(self):
        for i in range(5):
            rng = seeded(404, i)
            dim = int(rng.integers(2, 7))
            g = gaussian_matrix(rng, dim)
            hpd = g @ g.conj().T + np.eye(dim)
            np.testing.assert_allclose(linalg.singular_values(hpd),
                                       np.linalg.eigvalsh(hpd)[::-1], atol=1e-10)


def conditioned(s, index):
    """Q1 diag(1, .7, .5, .3, .1, s) Q2 with Haar unitaries: sigma_min = s."""
    rng = seeded(1313, index)
    return haar_unitary(rng, 6) @ np.diag([1, .7, .5, .3, .1, s]) @ haar_unitary(rng, 6)


class TestConditionRange:
    # the documented floor is sigma_min/sigma_max = 1e-12; above it every
    # kernel must stay accurate, below it inverse and polar must refuse.
    # Eight draws each, since rounding decides the sign of the error.

    @pytest.mark.parametrize("s", [1e-6, 1e-9, 1e-11])
    def test_accurate_above_floor(self, s):
        for i in range(8):
            a = conditioned(s, i)
            assert abs(linalg.singular_values(a)[-1] - s) <= 1e-3 * s
            linalg.inverse(a)
            u = linalg.polar(a).unitary
            assert np.linalg.norm(u.conj().T @ u - np.eye(6), 2) <= 1e-12

    @pytest.mark.parametrize("kernel", [linalg.inverse, linalg.polar])
    def test_rejects_below_floor(self, kernel):
        for i in range(8):
            with pytest.raises(np.linalg.LinAlgError):
                kernel(conditioned(1e-13, i))


class TestPolar:
    def test_scaled_identity(self):
        pf = linalg.polar(2.0 * np.eye(3))
        np.testing.assert_allclose(pf.unitary, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(pf.positive, 2.0 * np.eye(3), atol=1e-12)

    def test_scalar(self):
        pf = linalg.polar(np.array([[-3.0]]))
        assert pf.unitary[0, 0] == pytest.approx(-1.0, abs=1e-14)
        assert pf.positive[0, 0] == pytest.approx(3.0, abs=1e-14)

    def test_unitary_input(self):
        u = haar_unitary(seeded(505, 0), 4)
        pf = linalg.polar(u)
        np.testing.assert_allclose(pf.unitary, u, atol=1e-10)
        np.testing.assert_allclose(pf.positive, np.eye(4), atol=1e-10)

    def test_factor_invariants(self):
        for i in range(6):
            rng = seeded(606, i)
            dim = int(rng.integers(2, 8))
            a = gaussian_matrix(rng, dim) + np.eye(dim)
            pf = linalg.polar(a)
            np.testing.assert_allclose(pf.unitary.conj().T @ pf.unitary,
                                       np.eye(dim), atol=1e-10)
            np.testing.assert_allclose(pf.unitary @ pf.positive, a, atol=1e-10)
            np.testing.assert_allclose(pf.positive, pf.positive.conj().T, atol=1e-12)

    def test_unitary_factor_attains_distance(self):
        # the polar factor is the operator-norm argmin over unitaries
        for i in range(6):
            rng = seeded(707, i)
            dim = int(rng.integers(2, 8))
            a = gaussian_matrix(rng, dim) + 0.5 * np.eye(dim)
            sv = linalg.singular_values(a)
            if sv[-1] <= 1e-6 * sv[0]:
                continue
            pf = linalg.polar(a)
            dist = linalg.singular_values(a - pf.unitary)[0]
            assert dist == pytest.approx(max(sv[0] - 1, 1 - sv[-1]), abs=1e-9)

    def test_left_unitary_invariance(self):
        rng = seeded(808, 0)
        a = gaussian_matrix(rng, 5) + np.eye(5)
        u = haar_unitary(rng, 5)
        left = linalg.polar(u @ a).unitary
        np.testing.assert_allclose(left, u @ linalg.polar(a).unitary, atol=1e-9)

    def test_rejects_singular(self):
        with pytest.raises(np.linalg.LinAlgError):
            linalg.polar(np.array([[1, 0], [0, 0]], dtype=complex))


class TestInverse:
    def test_diagonal(self):
        np.testing.assert_allclose(linalg.inverse(np.diag([2.0, 4.0])),
                                   np.diag([0.5, 0.25]), atol=1e-14)

    def test_witness_is_self_inverse(self):
        np.testing.assert_allclose(linalg.inverse(WITNESS), WITNESS, atol=1e-14)

    def test_residual_contract(self):
        for i in range(5):
            rng = seeded(909, i)
            dim = int(rng.integers(2, 9))
            a = gaussian_matrix(rng, dim) + np.eye(dim)
            resid = np.linalg.norm(a @ linalg.inverse(a) - np.eye(dim))
            assert resid <= 1e-10 * dim

    def test_rejects_singular(self):
        with pytest.raises(np.linalg.LinAlgError):
            linalg.inverse(np.zeros((2, 2)))


class TestMatrixIO:
    def test_payload_round_trip(self):
        a = gaussian_matrix(seeded(111, 0), 3)
        back = linalg.matrix_from_payload(linalg.matrix_to_payload(a))
        np.testing.assert_array_equal(back, a)

    def test_file_round_trip(self, tmp_path):
        a = gaussian_matrix(seeded(111, 1), 4)
        path = tmp_path / "m.json"
        linalg.save_matrix(path, a)
        np.testing.assert_array_equal(linalg.load_matrix(path), a)

    def test_payload_validation(self):
        with pytest.raises(ValueError, match="missing"):
            linalg.matrix_from_payload({"dim": 2, "re": [1, 0, 0, 1]})
        with pytest.raises(ValueError, match="dim"):
            linalg.matrix_from_payload({"dim": 0, "re": [], "im": []})
        with pytest.raises(ValueError, match="dim\\*dim"):
            linalg.matrix_from_payload({"dim": 2, "re": [1.0], "im": [0.0]})
