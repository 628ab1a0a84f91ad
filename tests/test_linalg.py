import numpy as np
import pytest

from uavcache import linalg
from uavcache.config import RandomSource


def rng():
    return np.random.default_rng(7)


class TestSolveSpd:
    def test_identity(self):
        b = rng().standard_normal((4, 2))
        assert np.allclose(linalg.solve_spd(np.eye(4), b), b)

    def test_diagonal(self):
        x = linalg.solve_spd(np.diag([2.0, 4.0]), np.array([[2.0], [8.0]]))
        assert np.allclose(x, [[1.0], [2.0]])

    def test_random_spd_residual(self):
        a = rng().standard_normal((8, 8))
        spd = a.T @ a + np.eye(8)
        b = rng().standard_normal((8, 3))
        x = linalg.solve_spd(spd, b)
        residual = np.linalg.norm(spd @ x - b) / np.linalg.norm(b)
        assert residual <= linalg.SPD_RESIDUAL_RTOL

    def test_non_spd_detected(self):
        with pytest.raises(linalg.LinalgError):
            linalg.solve_spd(np.array([[1.0, 0.0], [0.0, -2.0]]), np.eye(2))

    def test_non_symmetric_detected(self):
        with pytest.raises(linalg.LinalgError):
            linalg.solve_spd(np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2))

    def test_agrees_with_pinv_solve(self):
        a = rng().standard_normal((6, 6))
        spd = a.T @ a + np.eye(6)
        b = rng().standard_normal((6, 1))
        x1 = linalg.solve_spd(spd, b)
        x2 = linalg.pinv(spd) @ b
        assert np.abs(x1 - x2).max() <= linalg.SOLVE_AGREEMENT_TOL


class TestSolveRidge:
    @pytest.mark.parametrize("n, t", [(12, 5), (12, 12), (12, 30), (12, 1)],
                             ids=["T<N", "T=N", "T>N", "T=1"])
    def test_matches_the_n_by_n_solve(self, n, t):
        gen = rng()
        x = np.tanh(gen.standard_normal((n, t)))
        b = gen.standard_normal((t, 3))
        a = 1e-2
        reference = linalg.solve_spd(x @ x.T + a * np.eye(n), x @ b)
        assert np.abs(linalg.solve_ridge(x, a, b) - reference).max() <= linalg.RIDGE_FORM_TOL

    @pytest.mark.parametrize("n, t, solved", [(12, 5, 5), (12, 12, 12), (12, 30, 12)])
    def test_solves_in_the_smaller_dimension(self, monkeypatch, n, t, solved):
        sizes = []
        original = linalg.solve_spd

        def recording_solve(a, b):
            sizes.append(a.shape)
            return original(a, b)

        monkeypatch.setattr(linalg, "solve_spd", recording_solve)
        linalg.solve_ridge(np.ones((n, t)), 1.0, np.ones((t, 2)))
        assert sizes == [(solved, solved)]

    def test_rhs_rows_must_match_columns(self):
        with pytest.raises(linalg.LinalgError):
            linalg.solve_ridge(np.ones((4, 3)), 1.0, np.ones((4, 1)))


def penrose_ok(a, ap, tol):
    return (np.abs(a @ ap @ a - a).max() <= tol
            and np.abs(ap @ a @ ap - ap).max() <= tol
            and np.abs((a @ ap).T - a @ ap).max() <= tol
            and np.abs((ap @ a).T - ap @ a).max() <= tol)


class TestPinv:
    def test_invertible_matches_inverse(self):
        a = rng().standard_normal((5, 5)) + 3 * np.eye(5)
        assert np.abs(linalg.pinv(a) - np.linalg.inv(a)).max() < 1e-9

    def test_zero_matrix(self):
        assert np.array_equal(linalg.pinv(np.zeros((3, 2))), np.zeros((2, 3)))

    def test_rank_one_penrose(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert penrose_ok(a, linalg.pinv(a), linalg.PINV_PENROSE_TOL)

    def test_orthogonal_pinv_is_transpose(self):
        q, _ = np.linalg.qr(rng().standard_normal((6, 6)))
        assert np.abs(linalg.pinv(q) - q.T).max() <= linalg.PINV_PENROSE_TOL


class TestSymEig:
    def test_diagonal(self):
        vals, _ = linalg.sym_eig(np.diag([3.0, 1.0]))
        assert np.allclose(vals, [3.0, 1.0])

    def test_identity(self):
        vals, _ = linalg.sym_eig(np.eye(4))
        assert np.allclose(vals, 1.0)

    def test_reconstruction(self):
        a = rng().standard_normal((6, 6))
        sym = 0.5 * (a + a.T)
        vals, vecs = linalg.sym_eig(sym)
        rebuilt = vecs @ np.diag(vals) @ vecs.T
        assert np.abs(rebuilt - sym).max() <= linalg.EIG_RECONSTRUCT_TOL
        assert (np.diff(vals) <= 1e-12).all()

    def test_rejects_nonsymmetric(self):
        with pytest.raises(linalg.LinalgError):
            linalg.sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestRandomReservoir:
    def test_radius_hits_target(self):
        w = linalg.random_reservoir(100, 0.1, 0.9, RandomSource(11).derive("res"))
        assert abs(linalg.spectral_radius(w) - 0.9) <= linalg.RESERVOIR_RADIUS_TOL

    def test_scalar_case(self):
        w = linalg.random_reservoir(1, 1.0, 0.5, RandomSource(11).derive("res"))
        assert w.shape == (1, 1)
        assert abs(abs(w[0, 0]) - 0.5) < 1e-12

    def test_deterministic(self):
        a = linalg.random_reservoir(40, 0.2, 0.8, RandomSource(5).derive("res"))
        b = linalg.random_reservoir(40, 0.2, 0.8, RandomSource(5).derive("res"))
        assert np.array_equal(a, b)

    def test_density_roughly_respected(self):
        w = linalg.random_reservoir(200, 0.1, 0.9, RandomSource(3).derive("res"))
        frac = np.count_nonzero(w) / w.size
        assert 0.05 < frac < 0.15

    def test_rejects_bad_arguments(self):
        with pytest.raises(linalg.LinalgError):
            linalg.random_reservoir(10, 0.0, 0.9, RandomSource(1).derive("r"))
        with pytest.raises(linalg.LinalgError):
            linalg.random_reservoir(10, 0.5, 1.2, RandomSource(1).derive("r"))
