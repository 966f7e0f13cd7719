import numpy as np
import pytest

from kaczmarz_mismatch import linalg
from kaczmarz_mismatch.errors import (
    ConvergenceError,
    DimensionError,
    InvalidInputError,
    RankDeficiencyError,
    SingularMatrixError,
)

import oracles


class TestSymmetricEigMin:
    def test_identity(self):
        lam, vec = linalg.symmetric_eig_min(np.eye(2))
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-10)

    def test_diagonal(self):
        lam, vec = linalg.symmetric_eig_min(np.diag([3.0, -2.0]))
        assert lam == pytest.approx(-2.0, abs=1e-12)
        assert abs(vec[1]) == pytest.approx(1.0, abs=1e-10)
        assert abs(vec[0]) < 1e-10

    def test_random_6x6_vs_sturm_oracle(self):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((6, 6))
        m = 0.5 * (g + g.T)
        lam, vec = linalg.symmetric_eig_min(m)
        assert lam == pytest.approx(oracles.sturm_smallest_eig(m), abs=1e-8)
        residual = np.linalg.norm(m @ vec - lam * vec)
        assert residual <= 1e-8 * np.linalg.norm(m)

    def test_rayleigh_upper_bound(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((8, 8))
        m = 0.5 * (g + g.T)
        lam, _ = linalg.symmetric_eig_min(m)
        for _ in range(100):
            v = rng.standard_normal(8)
            v /= np.linalg.norm(v)
            assert lam <= v @ m @ v + 1e-12

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            linalg.symmetric_eig_min(np.ones((2, 3)))

    def test_rejects_nan(self):
        m = np.eye(3)
        m[0, 1] = np.nan
        with pytest.raises(InvalidInputError):
            linalg.symmetric_eig_min(m)

    def test_rejects_gross_asymmetry(self):
        m = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(InvalidInputError):
            linalg.symmetric_eig_min(m)

    def test_accepts_rounding_skew(self):
        m = np.array([[2.0, 1.0], [1.0 + 1e-12, 2.0]])
        lam, _ = linalg.symmetric_eig_min(m)
        assert lam == pytest.approx(1.0, abs=1e-9)


class TestSpectralRadius:
    def test_nilpotent(self):
        assert linalg.spectral_radius([[0.0, 1.0], [0.0, 0.0]]) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_rotation_complex_pair(self):
        assert linalg.spectral_radius([[0.0, -1.0], [1.0, 0.0]]) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_diagonal(self):
        assert linalg.spectral_radius(np.diag([0.5, -0.9])) == pytest.approx(
            0.9, abs=1e-12
        )

    def test_known_spectrum_constructions(self):
        rng = np.random.default_rng(3)
        for trial in range(30):
            n_real = int(rng.integers(1, 20))
            n_pairs = int(rng.integers(1, 16))
            reals = rng.uniform(-2, 2, size=n_real)
            pairs = [tuple(rng.uniform(-2, 2, size=2)) for _ in range(n_pairs)]
            m, rho_exact = oracles.matrix_with_known_spectrum(reals, pairs, seed=trial)
            assert linalg.spectral_radius(m) == pytest.approx(
                rho_exact, rel=1e-8, abs=1e-10
            )

    def test_charpoly_oracle_small(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            m = rng.standard_normal((n, n))
            assert linalg.spectral_radius(m) == pytest.approx(
                oracles.charpoly_spectral_radius(m), rel=1e-8, abs=1e-9
            )

    def test_convergence_failure_carries_estimate(self, monkeypatch):
        def boom(_):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", boom)
        with pytest.raises(ConvergenceError) as exc_info:
            linalg.spectral_radius(np.eye(3))
        assert exc_info.value.estimate == pytest.approx(np.sqrt(3.0))


class TestTopSingularTriplet:
    def test_diagonal(self):
        trip = linalg.top_singular_triplet(np.diag([3.0, 1.0]))
        assert trip.sigma == pytest.approx(3.0, abs=1e-12)
        assert abs(trip.left[0]) == pytest.approx(1.0, abs=1e-12)
        assert abs(trip.right[0]) == pytest.approx(1.0, abs=1e-12)

    def test_zero_matrix(self):
        trip = linalg.top_singular_triplet(np.zeros((3, 2)))
        assert trip.sigma == 0.0
        assert np.linalg.norm(trip.left) == pytest.approx(1.0)
        assert np.linalg.norm(trip.right) == pytest.approx(1.0)

    def test_random_5x7_vs_power_iteration(self):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((5, 7))
        trip = linalg.top_singular_triplet(m)
        assert trip.sigma == pytest.approx(oracles.power_top_sigma(m), rel=1e-8)
        # Deflated oracle: the top value dominates the runner-up.
        sigma1, sigma2 = oracles.power_sigma_pair(m)
        assert sigma1 == pytest.approx(trip.sigma, rel=1e-8)
        assert sigma2 < sigma1

    def test_second_singular_value(self):
        trip = linalg.top_singular_triplet(np.diag([3.0, 2.0, 1.0]))
        assert trip.second == pytest.approx(2.0, abs=1e-12)
        assert linalg.top_singular_triplet(np.ones((3, 1))).second == 0.0
        assert linalg.top_singular_triplet(np.zeros((3, 2))).second == 0.0

    def test_triplet_consistency(self):
        rng = np.random.default_rng(17)
        m = rng.standard_normal((6, 4))
        sigma, left, right, _ = linalg.top_singular_triplet(m)
        assert np.linalg.norm(m @ right - sigma * left) <= 1e-10 * sigma
        assert np.linalg.norm(m.T @ left - sigma * right) <= 1e-10 * sigma
        assert np.linalg.norm(left) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(right) == pytest.approx(1.0, abs=1e-10)

    def test_sigma_squared_matches_gram_eigenvalue(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            m = rng.standard_normal((7, 5))
            sigma = linalg.top_singular_triplet(m).sigma
            lam, _ = linalg.symmetric_eig_min(-(m.T @ m))
            assert sigma**2 == pytest.approx(-lam, rel=1e-6)

    def test_radius_below_norm(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            m = rng.standard_normal((6, 6))
            assert linalg.spectral_radius(m) <= linalg.spectral_norm(m) + 1e-10


class TestOrthonormalRangeBasis:
    def test_two_columns_in_r3(self):
        m = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        z = linalg.orthonormal_range_basis(m)
        assert z.shape == (3, 2)
        np.testing.assert_allclose(z.T @ z, np.eye(2), atol=1e-10)
        assert np.allclose(z[2, :], 0.0, atol=1e-10)

    def test_duplicate_column_rank_one(self):
        col = np.array([1.0, 2.0, -1.0])
        m = np.column_stack([col, col])
        z = linalg.orthonormal_range_basis(m)
        assert z.shape == (3, 1)

    def test_full_row_rank_wide_matrix(self):
        rng = np.random.default_rng(29)
        v = rng.standard_normal((100, 500))
        z = linalg.orthonormal_range_basis(v.T)
        assert z.shape == (500, 100)
        np.testing.assert_allclose(z.T @ z, np.eye(100), atol=1e-10)
        resid = v.T - z @ (z.T @ v.T)
        assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(v)

    def test_zero_matrix_rejected(self):
        with pytest.raises(RankDeficiencyError):
            linalg.orthonormal_range_basis(np.zeros((4, 3)))


class TestLuSolve:
    def test_well_conditioned_random(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            m = rng.standard_normal((8, 8)) + 8.0 * np.eye(8)
            b = rng.standard_normal(8)
            x = linalg.lu_solve(m, b)
            assert np.linalg.norm(m @ x - b) <= 1e-8 * np.linalg.norm(
                m
            ) * np.linalg.norm(b)

    def test_singular_rejected(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError):
            linalg.lu_solve(m, np.ones(2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            linalg.lu_solve(np.eye(3), np.ones(2))

    def test_is_invertible(self):
        assert linalg.is_invertible(np.eye(3))
        assert not linalg.is_invertible(np.array([[1.0, 2.0], [2.0, 4.0]]))
