import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from kaczmarz_mismatch import linalg
from kaczmarz_mismatch.errors import (
    ConvergenceError,
    DimensionError,
    InvalidInputError,
    RankDeficiencyError,
    SingularMatrixError,
)

import oracles


# linalg.TIE_RTOL, pinned here: the planted gaps below straddle it.
TIE_RTOL = 1e-10


def full_spectrum_tie(vals, rtol=TIE_RTOL):
    """The tie rule on a full ascending spectrum: the oracle for the partial solve."""
    return len(vals) > 1 and vals[1] - vals[0] <= rtol * max(abs(vals[0]), abs(vals[-1]), 1e-30)


def planted_symmetric(low, gap, scale, n, seed):
    """Symmetric n x n matrix with eigenvalues low, low + gap, the rest spread
    above them up to ``scale``, and a random orthonormal eigenbasis."""
    rng = np.random.default_rng(seed)
    rest = np.linspace(low + gap + 0.1 * (scale - low), scale, n - 2)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    m = (q * np.concatenate([[low, low + gap], rest])) @ q.T
    return 0.5 * (m + m.T)


# Planted spectra: lambda_0 = c * scale with c = -1 (|lambda_0| sets the
# threshold) or |c| <= 1e-3 (|lambda_max| = scale sets it), and a gap of
# 1e-8 or 1e-12 times the scale, a hundred times on either side of TIE_RTOL.
planted_spectra = st.tuples(
    st.sampled_from([-1.0, -0.5, -1e-3, -1e-6, 0.0, 1e-6, 1e-3, 0.2]),
    st.sampled_from([1e-8, 1e-12]),
    st.sampled_from([1e-3, 1.0, 1e4]),
    st.integers(min_value=3, max_value=12),
    st.integers(min_value=0, max_value=2**32 - 1),
)


class TestAsCsr:
    @pytest.mark.parametrize("kind", [scipy.sparse.coo_array, scipy.sparse.csr_array])
    def test_canonical_format_and_stored_zeros(self, kind):
        # Row 0 holds columns 2, 0, 2: out of order and a duplicate; row 1 a
        # stored zero.
        data, cols, indptr = [2.0, 1.0, 0.5, 0.0], [2, 0, 2, 1], [0, 3, 4]
        if kind is scipy.sparse.coo_array:
            m = kind((data, ([0, 0, 0, 1], cols)), shape=(2, 3))
        else:
            m = kind((data, cols, indptr), shape=(2, 3))
        csr = linalg.as_csr(m, "m")
        assert isinstance(csr, scipy.sparse.csr_array) and csr.has_canonical_format
        np.testing.assert_array_equal(csr.indices, [0, 2, 1])
        np.testing.assert_array_equal(csr.data, [1.0, 2.5, 0.0])
        np.testing.assert_array_equal(m.toarray(), [[1.0, 0.0, 2.5], [0.0, 0.0, 0.0]])

    def test_dense_input_and_nbytes(self):
        csr = linalg.as_csr(np.array([[0.0, 1.0], [2.0, 0.0]]))
        assert csr.nnz == 2
        assert csr.nbytes == csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes

    @pytest.mark.parametrize("m, error", [
        (scipy.sparse.csr_array(np.array([[1.0, np.inf]])), InvalidInputError),
        (scipy.sparse.csr_array((0, 3)), DimensionError),
        (np.ones(3), DimensionError),
    ])
    def test_rejects(self, m, error):
        with pytest.raises(error):
            linalg.as_csr(m, "m")


class TestSymmetricEigMin:
    """The smallest eigenpair from ``symmetric_eigensystem``."""

    def test_identity(self):
        lam, vec, _ = linalg.symmetric_eigensystem(np.eye(2))
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-10)

    def test_diagonal(self):
        lam, vec, _ = linalg.symmetric_eigensystem(np.diag([3.0, -2.0]))
        assert lam == pytest.approx(-2.0, abs=1e-12)
        assert abs(vec[1]) == pytest.approx(1.0, abs=1e-10)
        assert abs(vec[0]) < 1e-10

    def test_random_6x6_vs_sturm_oracle(self):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((6, 6))
        m = 0.5 * (g + g.T)
        lam, vec, _ = linalg.symmetric_eigensystem(m)
        assert lam == pytest.approx(oracles.sturm_smallest_eig(m), abs=1e-8)
        residual = np.linalg.norm(m @ vec - lam * vec)
        assert residual <= 1e-8 * np.linalg.norm(m)

    def test_rayleigh_upper_bound(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((8, 8))
        m = 0.5 * (g + g.T)
        lam, _, _ = linalg.symmetric_eigensystem(m)
        for _ in range(100):
            v = rng.standard_normal(8)
            v /= np.linalg.norm(v)
            assert lam <= v @ m @ v + 1e-12

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            linalg.symmetric_eigensystem(np.ones((2, 3)))

    def test_rejects_nan(self):
        m = np.eye(3)
        m[0, 1] = np.nan
        with pytest.raises(InvalidInputError):
            linalg.symmetric_eigensystem(m)


class TestPartialSymmetricSolves:
    """The partial LAPACK solves against the full spectrum of ``np.linalg.eigh``."""

    @settings(max_examples=60, deadline=None)
    @given(planted_spectra)
    def test_against_full_eigh(self, case):
        c, g, scale, n, seed = case
        m = planted_symmetric(c * scale, g * scale, scale, n, seed)
        vals = np.linalg.eigh(m)[0]
        assert full_spectrum_tie(vals) == (g == 1e-12)  # the plant took
        lam, x, tied = linalg.symmetric_eigensystem(m)
        assert abs(lam - vals[0]) <= 1e-12 * scale
        assert np.linalg.norm(m @ x - lam * x) <= 1e-12 * scale
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
        assert tied == full_spectrum_tie(vals)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=10),
        st.floats(min_value=-6, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_random_symmetric(self, n, log_scale, seed):
        g = np.random.default_rng(seed).standard_normal((n, n)) * 10.0**log_scale
        m = g + g.T
        vals = np.linalg.eigh(m)[0]
        bound = 1e-12 * np.abs(vals).max()
        lam, x, tied = linalg.symmetric_eigensystem(m)
        assert abs(lam - vals[0]) <= bound
        assert np.linalg.norm(m @ x - lam * x) <= bound
        assert tied == full_spectrum_tie(vals)

    @pytest.mark.parametrize(
        "c, g, tied, solves",
        [
            (0.2, 1e-8, False, 1),  # gap > rtol * ||M||_F
            (-1.0, 1e-12, True, 1),  # gap <= rtol * max(|lambda_0|, |lambda_1|)
            (1e-3, 1e-12, True, 2),  # in between: lambda_max decides
            (1e-3, 2e-10, False, 2),
        ],
    )
    def test_lambda_max_solved_only_between_the_bounds(self, monkeypatch, c, g, tied, solves):
        calls = []
        solve = linalg._eigh_range

        def counted(*args, **kwargs):
            calls.append(args[1:3])
            return solve(*args, **kwargs)

        monkeypatch.setattr(linalg, "_eigh_range", counted)
        m = planted_symmetric(c, g, 1.0, 50, 3)
        assert linalg.symmetric_eigensystem(m)[2] == tied
        assert full_spectrum_tie(np.linalg.eigh(m)[0]) == tied
        assert calls == [(0, 1), (49, 49)][:solves]

    def test_one_by_one_has_no_tie(self):
        lam, x, tied = linalg.symmetric_eigensystem(np.array([[-2.5]]))
        assert (lam, abs(x[0]), tied) == (-2.5, 1.0, False)

    def test_exact_tie(self):
        lam, _, tied = linalg.symmetric_eigensystem(np.diag([1.0, 1.0, 4.0]))
        assert lam == pytest.approx(1.0, abs=1e-15)
        assert tied


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

    def test_convergence_failure_raises(self, monkeypatch):
        def boom(_):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", boom)
        with pytest.raises(ConvergenceError, match="did not converge"):
            linalg.spectral_radius(np.eye(3))


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
            lam, _, _ = linalg.symmetric_eigensystem(-(m.T @ m))
            assert sigma**2 == pytest.approx(-lam, rel=1e-6)

    def test_scaling_reads_the_largest_modulus(self):
        # The power-of-two scaling comes from max |m_ij|, here a negative
        # entry: scaled by the largest positive entry alone, the Gram
        # matrix would overflow.
        m = np.array([[-1e300, 1.0], [2.0, 3.0]])
        assert linalg.top_singular_triplet(m).sigma == pytest.approx(1e300, rel=1e-12)
        rng = np.random.default_rng(29)
        m = rng.standard_normal((5, 4))
        flipped, trip = linalg.top_singular_triplet(-m), linalg.top_singular_triplet(m)
        assert (flipped.sigma, flipped.second) == (trip.sigma, trip.second)

    def test_radius_below_norm(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            m = rng.standard_normal((6, 6))
            assert linalg.spectral_radius(m) <= linalg.top_singular_triplet(m).sigma + 1e-10


class TestGramOverwrite:
    """syevr overwrites the triplet's own Gram matrix, read as its transpose."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.floats(-6, 6),
           st.integers(0, 2**32 - 1))
    def test_gram_products_are_bitwise_symmetric(self, rows, cols, log_scale, seed):
        m = shaped_matrix(rows, cols, None, seed) * 10.0**log_scale
        for gram in (m.T @ m, m @ m.T):
            assert gram.view(np.int64).tolist() == gram.T.view(np.int64).tolist()

    @pytest.mark.parametrize("shape", [(9, 4), (4, 9), (30, 30), (1, 5)])
    def test_overwrite_matches_a_copy(self, shape):
        m = shaped_matrix(*shape, None, 31)
        gram = m.T @ m
        k = gram.shape[0]
        want = linalg._eigh_range(gram, max(k - 2, 0), k - 1)
        got = linalg._eigh_range(m.T @ m, max(k - 2, 0), k - 1, rebuild=lambda: m.T @ m)
        for w, g in zip(want, got):
            assert w.view(np.int64).tolist() == g.view(np.int64).tolist()

    def test_cluster_fallback_rebuilds_the_gram(self, monkeypatch):
        # A range that syevr cannot finish falls back to the full
        # decomposition of the Gram matrix made again, not of the one syevr
        # overwrote.
        syevr = linalg._SYEVR

        def short(*args, **kwargs):
            vals, vecs, found, isuppz, info = syevr(*args, **kwargs)
            return vals, vecs, found - 1, isuppz, info

        m = shaped_matrix(7, 5, None, 37)
        want = linalg.top_singular_triplet(m)
        monkeypatch.setattr(linalg, "_SYEVR", short)
        got = linalg.top_singular_triplet(m)
        assert got.sigma == pytest.approx(want.sigma, rel=1e-14)
        assert got.second == pytest.approx(want.second, rel=1e-12)
        assert np.linalg.norm(m @ got.right - got.sigma * got.left) <= 1e-12 * got.sigma


def shaped_matrix(rows, cols, rank, seed):
    """rows x cols Gaussian matrix of the given rank (full when rank is None)."""
    rng = np.random.default_rng(seed)
    if rank is None:
        return rng.standard_normal((rows, cols))
    return rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))


class TestTopSingularTripletOracle:
    """The Gram-matrix triplet against the full ``np.linalg.svd``."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([(6, 6), (9, 4), (4, 9), (1, 1), (1, 7), (7, 1), (12, 12)]),
        st.sampled_from([None, 1, 0]),
        st.floats(min_value=-6, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_against_full_svd(self, shape, rank, log_scale, seed):
        m = shaped_matrix(*shape, rank, seed) * 10.0**log_scale
        sigma, left, right, second = linalg.top_singular_triplet(m)
        u, s, vt = np.linalg.svd(m)
        if rank == 0:
            assert (sigma, second) == (0.0, 0.0)
            assert left[0] == right[0] == 1.0
            return
        assert sigma == pytest.approx(s[0], rel=1e-13)
        # second comes from an eigenvalue of the Gram matrix: accurate to
        # about eps * sigma near sigma, to about sqrt(eps) * sigma near 0.
        assert second == pytest.approx(s[1] if len(s) > 1 else 0.0, abs=1e-7 * sigma)
        assert np.linalg.norm(m @ right - sigma * left) <= 1e-12 * sigma
        assert np.linalg.norm(m.T @ left - sigma * right) <= 1e-12 * sigma
        assert np.linalg.norm(left) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(right) == pytest.approx(1.0, abs=1e-12)
        if len(s) == 1 or s[0] - s[1] > 1e-3 * s[0]:
            assert abs(left @ u[:, 0]) == pytest.approx(1.0, abs=1e-9)
            assert abs(right @ vt[0]) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160, 1e200])
    def test_extreme_scales(self, scale):
        # Entries whose squares under- or overflow: the Gram matrix is formed
        # after an exact power-of-two rescaling.
        m = shaped_matrix(6, 4, None, 41)
        trip = linalg.top_singular_triplet(m * scale)
        s = np.linalg.svd(m, compute_uv=False)
        assert trip.sigma == pytest.approx(s[0] * scale, rel=1e-13)
        assert trip.second == pytest.approx(s[1] * scale, rel=1e-10)
        assert np.linalg.norm(trip.left) == pytest.approx(1.0, abs=1e-12)

    def test_oblique_projector_clusters(self, monkeypatch):
        # I - v a^T / <a, v> has singular values 0, 1 (n - 2 times) and
        # ||a|| ||v|| / <a, v>; the tied ones once made syevr return nothing.
        # Where syevr still returns fewer eigenpairs than asked for, the
        # answer comes from the full decomposition: some of these take it.
        full = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda sym: full.append(1) or eigh(sym))
        rng = np.random.default_rng(43)
        for _ in range(300):
            a = rng.standard_normal(12)
            v = np.where(rng.random(12) < 0.5, 0.0, a)
            v[0] = a[0]
            trip = linalg.top_singular_triplet(np.eye(12) - np.outer(v, a) / (a @ v))
            norm = np.linalg.norm(a) * np.linalg.norm(v) / (a @ v)
            assert trip.sigma == pytest.approx(norm, rel=1e-12)
            assert trip.second == pytest.approx(1.0, rel=1e-12)
        assert full

    def test_close_pair_second_accurate(self):
        # Near a tie, second is as accurate as sigma: the tie test reads it.
        rng = np.random.default_rng(37)
        q1, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        m = q1[:, :3] @ np.diag([3.0, 3.0 * (1 - 1e-11), 1.0]) @ q2.T
        trip = linalg.top_singular_triplet(m)
        assert trip.sigma - trip.second == pytest.approx(3e-11, rel=1e-3)


class TestNumericalRank:
    def test_two_columns_in_r3(self):
        m = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert linalg.numerical_rank(m) == 2

    def test_duplicate_column_rank_one(self):
        col = np.array([1.0, 2.0, -1.0])
        m = np.column_stack([col, col])
        assert linalg.numerical_rank(m) == 1

    def test_full_row_rank_wide_matrix(self):
        rng = np.random.default_rng(29)
        v = rng.standard_normal((100, 500))
        assert linalg.numerical_rank(v.T) == 100
        assert linalg.numerical_rank(v) == 100
        # The tests' range basis has as many columns, orthonormal and spanning.
        z = oracles.range_basis(v.T)
        assert z.shape == (500, 100)
        np.testing.assert_allclose(z.T @ z, np.eye(100), atol=1e-10)
        resid = v.T - z @ (z.T @ v.T)
        assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(v)

    def test_rank_drop_at_tolerance(self):
        # A column at 1e-13 of the others is dropped; one at 1e-8 is kept.
        rng = np.random.default_rng(30)
        q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        for scale, rank in ((1e-13, 2), (1e-8, 3)):
            m = q @ np.diag([1.0, 1.0, scale])
            assert linalg.numerical_rank(m) == rank

    def test_zero_matrix_rejected(self):
        with pytest.raises(RankDeficiencyError, match="zero matrix has rank 0"):
            linalg.numerical_rank(np.zeros((4, 3)))


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

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=8),
        st.floats(min_value=-6, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_solve_fails_exactly_when_not_invertible(self, n, rank, log_scale, seed):
        # One pivot check, at any scale: a Gaussian matrix of full rank is
        # solved to a backward-stable residual, a rank-deficient one rejected.
        m = shaped_matrix(n, n, min(rank, n), seed) * 10.0**log_scale
        if rank >= n:
            x = linalg.lu_solve(m, np.ones(n))
            residual = np.linalg.norm(m @ x - 1.0)
            assert residual <= 1e-12 * np.linalg.norm(m) * np.linalg.norm(x)
        else:
            with pytest.raises(SingularMatrixError):
                linalg.lu_solve(m, np.ones(n))


class TestCholeskyCoordinates:
    def test_coordinates_in_an_orthonormal_basis(self):
        # G = V V^T = L L^T: Z = V^T L^-T is orthonormal, and the function
        # returns (A Z, V Z) = (A V^T L^-T, L).
        rng = np.random.default_rng(41)
        a, v = rng.standard_normal((5, 12)), rng.standard_normal((5, 12))
        coords, low = linalg.cholesky_coordinates(v @ v.T, a @ v.T)
        np.testing.assert_array_equal(low, np.tril(low))
        gram = v @ v.T
        np.testing.assert_allclose(low @ low.T, gram, rtol=0, atol=1e-13 * np.linalg.norm(gram))
        z = np.linalg.solve(low, v).T
        np.testing.assert_allclose(z.T @ z, np.eye(5), rtol=0, atol=1e-13)
        np.testing.assert_allclose(coords, a @ z, rtol=0, atol=1e-13 * np.linalg.norm(a))
        np.testing.assert_allclose(low, v @ z, rtol=0, atol=1e-13 * np.linalg.norm(v))

    def test_not_positive_definite_rejected(self):
        v = np.array([[1.0, 0.0], [2.0, 0.0]])  # rank 1: V V^T is singular
        with pytest.raises(RankDeficiencyError, match="V V\\^T is not positive definite"):
            linalg.cholesky_coordinates(v @ v.T, np.eye(2))

