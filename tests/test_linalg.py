import io
import math

import numpy as np
import pytest

from conftest import FakeBlas, gaussian_matrix, haar_unitary, seeded
from opradius import linalg
from opradius.extremal import build
from opradius.unitary import distance_to_unitaries


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

    def test_scalar_becomes_one_by_one(self):
        m = linalg.as_matrix(2.5j)
        assert m.shape == (1, 1) and m.dtype == np.complex128 and m[0, 0] == 2.5j

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="dimension"):
            linalg.as_matrix(np.zeros((0, 0)))


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
    # kernel must stay accurate, below it inverse and the polar factor (whose
    # one caller is distance_to_unitaries) must refuse. Eight draws each,
    # since rounding decides the sign of the error.

    @pytest.mark.parametrize("s", [1e-6, 1e-9, 1e-11])
    def test_accurate_above_floor(self, s):
        for i in range(8):
            a = conditioned(s, i)
            assert abs(linalg.singular_values(a)[-1] - s) <= 1e-3 * s
            linalg.inverse(a)
            u = distance_to_unitaries(a).nearest
            assert np.linalg.norm(u.conj().T @ u - np.eye(6), 2) <= 1e-12

    @pytest.mark.parametrize("kernel", [linalg.inverse, distance_to_unitaries],
                             ids=["inverse", "polar"])
    def test_rejects_below_floor(self, kernel):
        for i in range(8):
            with pytest.raises(np.linalg.LinAlgError):
                kernel(conditioned(1e-13, i))


class TestPolar:
    # the unitary polar factor, which distance_to_unitaries returns as `nearest`

    def test_scaled_identity(self):
        u = distance_to_unitaries(2.0 * np.eye(3)).nearest
        np.testing.assert_allclose(u, np.eye(3), atol=1e-12)

    def test_scalar(self):
        u = distance_to_unitaries(np.array([[-3.0]])).nearest
        assert u[0, 0] == pytest.approx(-1.0, abs=1e-14)

    def test_unitary_input(self):
        u = haar_unitary(seeded(505, 0), 4)
        np.testing.assert_allclose(distance_to_unitaries(u).nearest, u, atol=1e-10)

    def test_factor_invariants(self):
        # U is unitary and U* A is the positive factor: Hermitian, and
        # positive definite as A is invertible
        for i in range(6):
            rng = seeded(606, i)
            dim = int(rng.integers(2, 8))
            a = gaussian_matrix(rng, dim) + np.eye(dim)
            u = distance_to_unitaries(a).nearest
            np.testing.assert_allclose(u.conj().T @ u, np.eye(dim), atol=1e-10)
            p = u.conj().T @ a
            np.testing.assert_allclose(p, p.conj().T, atol=1e-10)
            assert np.linalg.eigvalsh((p + p.conj().T) / 2)[0] > 0

    def test_unitary_factor_attains_distance(self):
        # the polar factor is the operator-norm argmin over unitaries
        for i in range(6):
            rng = seeded(707, i)
            dim = int(rng.integers(2, 8))
            a = gaussian_matrix(rng, dim) + 0.5 * np.eye(dim)
            sv = linalg.singular_values(a)
            if sv[-1] <= 1e-6 * sv[0]:
                continue
            u = distance_to_unitaries(a).nearest
            dist = linalg.singular_values(a - u)[0]
            assert dist == pytest.approx(max(sv[0] - 1, 1 - sv[-1]), abs=1e-9)

    def test_left_unitary_invariance(self):
        rng = seeded(808, 0)
        a = gaussian_matrix(rng, 5) + np.eye(5)
        u = haar_unitary(rng, 5)
        left = distance_to_unitaries(u @ a).nearest
        np.testing.assert_allclose(left, u @ distance_to_unitaries(a).nearest,
                                   atol=1e-9)

    def test_rejects_singular(self):
        with pytest.raises(np.linalg.LinAlgError):
            distance_to_unitaries(np.array([[1, 0], [0, 0]], dtype=complex))


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
        # JSON numbers only, though float64 would convert the first two, and
        # within float64's range: a huge integer used to raise OverflowError
        for entry in ("1.5", True, 10**400):
            with pytest.raises(ValueError, match="dim\\*dim"):
                linalg.matrix_from_payload({"dim": 1, "re": [entry], "im": [0]})
        with pytest.raises(ValueError, match="object"):
            linalg.matrix_from_payload([2, [1.0], [0.0]])

    def test_failed_write_keeps_old_file(self, tmp_path):
        # a lone surrogate cannot be encoded: the write fails mid-way, the
        # old contents survive and the temp file is removed
        path = tmp_path / "m.json"
        path.write_text("old", encoding="utf-8")
        with pytest.raises(UnicodeEncodeError):
            linalg.atomic_write(path, "a\ud800b")
        assert path.read_text(encoding="utf-8") == "old"
        assert not list(tmp_path.glob("tmp*.tmp"))


class TestSerialBlas:
    def test_one_thread_needs_no_set_call(self, monkeypatch):
        blas = FakeBlas(1)
        monkeypatch.setattr(linalg, "_openblas_threads", lambda: (blas.get, blas.set))
        with linalg._serial_blas():
            pass
        assert blas.sets == []

    @pytest.mark.parametrize("maps", [
        None,
        "7f00-7f01 r--p 00000000 fe:00 1 /usr/lib/libm.so.6\n"
        "7f02-7f03 rw-p 00000000 00:00 0 \n"
        "7f04-7f05 r--p 00000000 fe:00 2 /opt/openblas/lib/libmkl_rt.so\n",
    ], ids=["no-proc", "no-openblas-mapped"])
    def test_lookup_finds_nothing(self, maps, monkeypatch):
        # only an OpenBLAS by file name among the mapped files is opened,
        # never one found elsewhere
        def fake_open(path, *args, **kwargs):
            assert path == "/proc/self/maps"
            if maps is None:
                raise FileNotFoundError(path)
            return io.StringIO(maps)

        opened = []
        monkeypatch.setattr(linalg, "open", fake_open, raising=False)
        monkeypatch.setattr(linalg.ctypes, "CDLL", opened.append)
        assert linalg._openblas_threads.__wrapped__() is None
        assert opened == []

    def test_lookup_reads_numpys_openblas(self):
        # numpy's wheels link scipy-openblas; other builds find nothing
        blas = linalg._openblas_threads()
        if blas is None:
            pytest.skip("numpy links no OpenBLAS that exposes its thread count")
        get = blas[0]
        found = get()
        assert found >= 1
        with linalg._serial_blas():
            assert get() == 1
        assert get() == found
