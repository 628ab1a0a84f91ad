import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (EIG_RECONSTRUCT_TOL, PINV_PENROSE_TOL, RADIUS_AGREEMENT_RTOL,
                      RIDGE_FORM_TOL, SOLVE_AGREEMENT_TOL, SPD_RESIDUAL_RTOL, dense_radius)
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
        assert residual <= SPD_RESIDUAL_RTOL

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
        assert np.abs(x1 - x2).max() <= SOLVE_AGREEMENT_TOL


class TestSymmetryCheck:
    @given(n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1), scale_exp=st.floats(-3.0, 6.0),
           skew=st.sampled_from([0.0, 0.5, 0.999999, 1.0, 1.000001, 2.0, -1.0, -1.000001]),
           tol=st.sampled_from([linalg.SPD_SYMMETRY_TOL, linalg.EIG_SYMMETRY_TOL]))
    def test_same_verdict_as_allclose(self, n, seed, scale_exp, skew, tol):
        gen = np.random.default_rng(seed)
        a = gen.standard_normal((n, n)) * 10.0 ** scale_exp
        a = a + a.T
        slack = tol * max(1.0, float(np.abs(a).max()))
        a[0, -1] += skew * slack  # asymmetry at, just under and just over the slack
        symmetric = np.allclose(a, a.T, rtol=0, atol=tol * max(1.0, float(np.abs(a).max())))
        try:
            linalg._check_symmetric(a, tol)
        except linalg.LinalgError:
            assert not symmetric
        else:
            assert symmetric

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("call", [lambda a: linalg.solve_spd(a, np.ones(3)), linalg.sym_eig],
                             ids=["solve_spd", "sym_eig"])
    def test_non_finite_entry_rejected(self, call, bad):
        a = np.eye(3)
        a[0, 1] = a[1, 0] = bad  # symmetric in its pattern, so only the non-finite check can catch it
        with pytest.raises(linalg.LinalgError, match="NaN or infinite"):
            call(a)


class TestSolveRidge:
    @pytest.mark.parametrize("n, t", [(12, 5), (12, 12), (12, 30), (12, 1)],
                             ids=["T<N", "T=N", "T>N", "T=1"])
    def test_matches_the_n_by_n_solve(self, n, t):
        gen = rng()
        x = np.tanh(gen.standard_normal((n, t)))
        b = gen.standard_normal((t, 3))
        a = 1e-2
        reference = linalg.solve_spd(x @ x.T + a * np.eye(n), x @ b)
        assert np.abs(linalg.solve_ridge(x, a, b) - reference).max() <= RIDGE_FORM_TOL

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
        assert penrose_ok(a, linalg.pinv(a), PINV_PENROSE_TOL)

    def test_orthogonal_pinv_is_transpose(self):
        q, _ = np.linalg.qr(rng().standard_normal((6, 6)))
        assert np.abs(linalg.pinv(q) - q.T).max() <= PINV_PENROSE_TOL


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
        assert np.abs(rebuilt - sym).max() <= EIG_RECONSTRUCT_TOL
        assert (np.diff(vals) <= 1e-12).all()

    def test_rejects_nonsymmetric(self):
        with pytest.raises(linalg.LinalgError):
            linalg.sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def permuted(a: np.ndarray, seed: int) -> np.ndarray:
    """a with its rows and columns put in the same random order: the same eigenvalues."""
    p = np.random.default_rng(seed).permutation(a.shape[0])
    return a[np.ix_(p, p)]


def with_outer_block(block: np.ndarray, n: int, seed: int) -> np.ndarray:
    """An n x n matrix similar to diag(bulk, block), through a random orthogonal Q.

    The bulk is a dense uniform draw scaled to radius 0.5, so a 2 x 2 block with
    eigenvalues of modulus above 0.5 holds the dominant ones.
    """
    gen = np.random.default_rng(seed)
    bulk = gen.uniform(-1.0, 1.0, (n - 2, n - 2))
    d = np.zeros((n, n))
    d[:-2, :-2] = bulk * (0.5 / dense_radius(bulk))
    d[-2:, -2:] = block
    q = np.linalg.qr(gen.standard_normal((n, n)))[0]
    return q @ d @ q.T


def assert_agrees(radius, reference: float):
    assert radius is not None and abs(radius - reference) <= RADIUS_AGREEMENT_RTOL * reference


class TestSpectralRadius:
    @pytest.mark.parametrize("density", [0.1, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 40, 60, 150, 200, 500, 1000])
    def test_matches_the_dense_reference(self, n, density):
        gen = np.random.default_rng([n, int(10 * density)])
        a = np.where(gen.random((n, n)) < density, gen.uniform(-1.0, 1.0, (n, n)), 0.0)
        reference = dense_radius(a)
        assert abs(linalg.spectral_radius(a) - reference) <= RADIUS_AGREEMENT_RTOL * reference
        if n >= linalg.ARNOLDI_MIN_N:  # Arnoldi itself, not rescued by the dense path
            assert_agrees(linalg._arnoldi_radius(a), reference)

    @pytest.mark.parametrize("block, pair", [
        ([[1.5, 0.3], [0.0, 0.2]], False),
        ([[0.9, -1.2], [1.2, 0.9]], True),
    ], ids=["real", "complex-pair"])
    def test_dominant_real_eigenvalue_or_complex_pair(self, block, pair):
        # both blocks have an eigenvalue of modulus 1.5: 1.5 itself, or 0.9 +- 1.2i
        a = with_outer_block(np.array(block), 200, 3)
        eigenvalues = np.linalg.eigvals(a)
        assert (eigenvalues[np.argmax(np.abs(eigenvalues))].imag != 0.0) == pair
        assert_agrees(dense_radius(a), 1.5)
        assert_agrees(linalg._arnoldi_radius(a), 1.5)

    def test_permuted_strictly_triangular_is_exactly_zero(self, monkeypatch):
        # structurally nilpotent: the peel takes every row, so Arnoldi, for which the
        # eigenvalues of a tiny perturbation reach far from 0, never sees it
        a = permuted(np.triu(np.random.default_rng(4).uniform(-1.0, 1.0, (300, 300)), k=1), 5)
        monkeypatch.setattr(linalg, "_arnoldi_radius", lambda core: pytest.fail("not peeled"))
        assert linalg.spectral_radius(a) == 0.0

    def test_permuted_triangular_is_its_largest_diagonal_entry(self):
        gen = np.random.default_rng(6)
        a = np.triu(gen.uniform(-1.0, 1.0, (300, 300)), k=1) + np.diag(gen.uniform(-0.5, 0.5, 300))
        assert linalg.spectral_radius(permuted(a, 7)) == np.abs(np.diag(a)).max()

    @pytest.mark.parametrize("corner", [0.5, 50.0], ids=["core-dominates", "isolated-dominates"])
    def test_peel_leaves_the_core(self, corner):
        # a 160 x 160 core, which Arnoldi takes, inside a triangular border of 100 rows;
        # the core's radius is about 7, so a corner entry of 50 is the dominant eigenvalue
        gen = np.random.default_rng(8)
        a = np.triu(gen.uniform(-1.0, 1.0, (260, 260)))
        a[50:210, 50:210] = gen.uniform(-1.0, 1.0, (160, 160))
        a[0, 0] = corner
        a = permuted(a, 9)
        core, isolated = linalg._peel(a)
        assert core.shape == (160, 160) and isolated.shape == (100,)
        assert_agrees(linalg.spectral_radius(a), dense_radius(a))

    @pytest.mark.parametrize("n", [1, 200])
    def test_zero_matrix(self, n):
        assert linalg.spectral_radius(np.zeros((n, n))) == 0.0

    def test_constant_row_sums(self):
        # the all-ones vector is an eigenvector, of the row sum 0.1, far inside the spectrum
        gen = np.random.default_rng(10)
        b = gen.uniform(-1.0, 1.0, (200, 200))
        a = b - b.sum(axis=1, keepdims=True) / 200 + 0.1 / 200
        assert np.allclose(a @ np.ones(200), 0.1)
        reference = dense_radius(a)
        assert reference > 1.0
        assert_agrees(linalg._arnoldi_radius(a), reference)

    def test_restart_budget_runs_out_to_the_dense_path(self, monkeypatch):
        gen = np.random.default_rng(11)
        a = np.where(gen.random((200, 200)) < 0.1, gen.uniform(-1.0, 1.0, (200, 200)), 0.0)
        monkeypatch.setattr(linalg, "ARNOLDI_RESTARTS", 1)
        assert linalg._arnoldi_radius(a) is None
        assert linalg.spectral_radius(a) == dense_radius(a)

    def test_drifted_restart_goes_to_the_dense_path(self, monkeypatch):
        # restart bases 1e-11 off the Ritz vectors' span: the estimated residual still
        # converges, the residual checked against the matrix does not
        gen = np.random.default_rng(11)
        a = np.where(gen.random((200, 200)) < 0.1, gen.uniform(-1.0, 1.0, (200, 200)), 0.0)
        qr = np.linalg.qr

        def drifted_qr(x):
            q = qr(x)[0]
            return qr(q + 1e-11 * np.random.default_rng(1).standard_normal(q.shape))

        monkeypatch.setattr(np.linalg, "qr", drifted_qr)
        assert linalg._arnoldi_radius(a) is None
        assert linalg.spectral_radius(a) == dense_radius(a)

    def test_closed_krylov_space_goes_to_the_dense_path(self):
        # rank one: the Krylov space closes after two vectors
        gen = np.random.default_rng(12)
        a = np.outer(gen.uniform(0.5, 1.0, 200), gen.uniform(-1.0, 1.0, 200))
        assert linalg._arnoldi_radius(a) is None
        assert linalg.spectral_radius(a) == dense_radius(a)

    def test_rejects_a_non_square_matrix(self):
        with pytest.raises(linalg.LinalgError):
            linalg.spectral_radius(np.ones((3, 4)))


class TestRandomReservoir:
    def test_radius_hits_target(self):
        w = linalg.random_reservoir(100, 0.1, 0.9, RandomSource(11).derive("res"))
        assert abs(dense_radius(w) - 0.9) <= linalg.RESERVOIR_RADIUS_TOL

    def test_radius_hits_target_above_the_size_cut(self):
        w = linalg.random_reservoir(linalg.ARNOLDI_MIN_N + 50, 0.1, 0.9,
                                    RandomSource(11).derive("res"))
        assert abs(dense_radius(w) - 0.9) <= RADIUS_AGREEMENT_RTOL * 0.9

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
