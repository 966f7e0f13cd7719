import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kaczmarz_mismatch import diagnostics, experiments, problems, probopt
from kaczmarz_mismatch.diagnostics import (
    CSV_COLUMNS,
    ExpectationOperator,
    RateDiagnostics,
    analysis_rows,
    compute_diagnostics,
    expectation_operator,
    inconsistent_bound,
    noise_gamma,
)
from kaczmarz_mismatch.errors import (
    DimensionError,
    InvalidInputError,
    NoGuaranteeError,
    NumericError,
    RankDeficiencyError,
    SingularMatrixError,
)
from kaczmarz_mismatch.linalg import (
    lu_solve,
    spectral_radius,
    symmetric_eigensystem,
    top_singular_triplet,
)
from kaczmarz_mismatch.problems import (
    assemble_consistent,
    assemble_inconsistent,
    assemble_scaled_for_probopt,
    assemble_underdetermined,
    gaussian_instance,
    gen_gaussian,
    mismatch_threshold,
)
from kaczmarz_mismatch.solver import SolverConfig, StepRule, make_system, run

import oracles


def thresholded_instance(m, n, tau, seed):
    a = gen_gaussian(m, n, seed)
    return assemble_consistent(a, mismatch_threshold(a, tau), seed)


def row_norm_probabilities(sys):
    p = sys.norms_sq_a
    return p / p.sum()


def pairing_probabilities(sys):
    return sys.pairing / sys.pairing.sum()


def random_system(m, n, tau, rng, noise=None):
    """Gaussian A with V its entries of magnitude >= tau (a row left empty keeps A's)."""
    a = rng.standard_normal((m, n))
    v = np.where(np.abs(a) >= tau, a, 0.0)
    dead = ~v.any(axis=1)
    v[dead] = a[dead]
    return make_system(a, v, np.zeros(m), noise=noise)


def random_csr_system(m, n, tau, rng, noise=None):
    """A CSR pair: A from ``oracles.random_csr`` plus 1 + U(0, 1) at (i, i mod n).

    V keeps A's stored entries of magnitude >= tau, the others stored as
    zeros.  The added entry keeps most rows of V non-zero; a row that still
    vanishes is rejected by ``make_system``.
    """
    rows = np.arange(m)
    lift = scipy.sparse.csr_array((1.0 + rng.random(m), (rows, rows % n)), shape=(m, n))
    a = oracles.random_csr(rng, (m, n), 0.5) + lift
    v = a.copy()
    v.data[np.abs(v.data) < tau] = 0.0
    return make_system(a, v, np.zeros(m), noise=noise)


def some_distributions(rng, m):
    """Three distributions on m rows, the last one zero on some rows."""
    dists = rng.dirichlet(np.ones(m), size=3)
    dists[2] *= rng.random(m) < 0.5  # some rows never drawn
    dists[2, 0] += 1.0 - dists[2].sum()
    return dists


def pipeline_instance(name):
    """The instance the ``experiment`` pipeline ``name`` builds at its defaults."""
    exp = experiments.EXPERIMENTS[name]
    params = exp.parameters({})
    instance = {key: params[key] for key in problems.INSTANCES[exp.kind].defaults}
    return problems.build_instance(exp.kind, params["seed"], **instance)


# One pipeline per Gaussian kind: consistent, inconsistent, underdetermined
# (fig3, analysed range-restricted) and probopt.
GAUSSIAN_PIPELINES = ("fig1", "fig2", "fig3", "table1")


class TestScaling:
    def test_matched_row_norm_probabilities(self):
        # V = A with squared-row-norm probabilities: D = I / ||A||_F^2, S = I.
        a = gen_gaussian(10, 4, 0)
        sys = make_system(a, a, a @ np.zeros(4))
        p = row_norm_probabilities(sys)
        op = expectation_operator(sys, StepRule.OBLIQUE_EXACT)
        fro_sq = np.linalg.norm(a) ** 2
        np.testing.assert_allclose(p * op.omega, np.full(10, 1.0 / fro_sq), rtol=1e-12)
        np.testing.assert_allclose(op.s, np.ones(10), rtol=1e-12)

    def test_pairing_probabilities_give_constant_d(self):
        sys = thresholded_instance(12, 5, 0.4, 1)
        p = pairing_probabilities(sys)
        op = expectation_operator(sys, StepRule.OBLIQUE_EXACT)
        norm_v_sq = float(sys.pairing.sum())
        np.testing.assert_allclose(p * op.omega, np.full(12, 1.0 / norm_v_sq), rtol=1e-12)

    def test_single_row(self):
        sys = make_system(
            np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]), np.zeros(1)
        )
        op = expectation_operator(sys, StepRule.OBLIQUE_EXACT)
        np.testing.assert_allclose(np.array([1.0]) * op.omega, [1.0])
        np.testing.assert_allclose(op.s, [1.0])
        np.testing.assert_allclose(sys.pairing, [1.0])


class TestContractionLambda:
    def test_identity_half(self):
        sys = make_system(np.eye(2), np.eye(2), np.zeros(2))
        assert compute_diagnostics(sys, [0.5, 0.5]).lam == pytest.approx(0.5, abs=1e-12)

    def test_matched_closed_form(self):
        a = gen_gaussian(20, 6, 3)
        sys = make_system(a, a, np.zeros(20))
        p = row_norm_probabilities(sys)
        lam = compute_diagnostics(sys, p).lam
        expected = symmetric_eigensystem(a.T @ a)[0] / np.linalg.norm(a) ** 2
        assert lam == pytest.approx(expected, rel=1e-10)

    def test_paper_scale_band(self):
        sys = thresholded_instance(500, 200, 0.5, 1)
        lam = compute_diagnostics(sys, row_norm_probabilities(sys)).lam
        assert 2e-4 <= lam <= 1.5e-3


class TestRateExpressions:
    def test_identity_rate(self):
        sys = make_system(np.eye(2), np.eye(2), np.zeros(2))
        diag = compute_diagnostics(sys, [0.5, 0.5])
        assert diag.rho_asymptotic == pytest.approx(0.5, abs=1e-12)
        assert diag.norm_expectation == pytest.approx(0.5, abs=1e-12)

    def test_paper_scale_rho_band(self):
        sys = thresholded_instance(500, 200, 0.5, 1)
        rho = compute_diagnostics(sys, row_norm_probabilities(sys)).rho_asymptotic
        assert 1 - 2e-3 <= rho <= 1 - 3e-4

    def test_matched_case_all_three_equal(self):
        for seed in range(3):
            a = gen_gaussian(15, 5, seed)
            sys = make_system(a, a, np.zeros(15))
            p = np.random.default_rng(seed).random(15)
            p /= p.sum()
            diag = compute_diagnostics(sys, p)
            lam, rho, nrm = diag.lam, diag.rho_asymptotic, diag.norm_expectation
            assert abs((1 - lam) - rho) <= 1e-8
            assert abs((1 - lam) - nrm) <= 1e-8

    def test_norm_identity_against_expanded_product(self):
        sys = thresholded_instance(25, 8, 0.5, 4)
        p = row_norm_probabilities(sys)
        op = expectation_operator(sys)
        vtda = sys.v.T @ ((p * op.omega)[:, None] * sys.a)
        m = np.eye(8) - vtda
        expanded = np.eye(8) - vtda - vtda.T + vtda.T @ vtda
        nrm = compute_diagnostics(sys, p).norm_expectation
        assert nrm**2 == pytest.approx(spectral_radius(expanded), rel=1e-8)

    def test_scaled_zeroed_instance_norm_band(self):
        # 300x100 row-scaled instance with 5% zeroed surrogate entries at
        # uniform probabilities: the expectation norm sits just below 1
        # (published value for this setup: 0.998029; seed-dependent band).
        sys = assemble_scaled_for_probopt(300, 100, 0.05, 5)
        nrm = compute_diagnostics(sys, np.full(300, 1 / 300)).norm_expectation
        assert 0.995 <= nrm <= 0.9995

    def test_rho_never_exceeds_norm(self):
        for seed in range(5):
            sys = thresholded_instance(30, 10, 0.5, seed)
            p = row_norm_probabilities(sys)
            diag = compute_diagnostics(sys, p)
            assert diag.rho_asymptotic <= diag.norm_expectation + 1e-8

    def test_psd_certificate(self):
        # I - W is positive semidefinite: one minus the quadratic form is an
        # expectation of squared norms.
        for seed in range(4):
            sys = thresholded_instance(25, 8, 0.5, 10 + seed)
            p = row_norm_probabilities(sys)
            for rule in [
                StepRule.OBLIQUE_EXACT,
                StepRule.INVERSE_ROW_NORM_A,
                StepRule.INVERSE_ROW_NORM_V,
            ]:
                op = expectation_operator(sys, rule)
                d = p * op.omega
                vtda = sys.v.T @ (d[:, None] * sys.a)
                atsda = sys.a.T @ ((op.s * d)[:, None] * sys.a)
                w = vtda + vtda.T - atsda
                i_w = np.eye(sys.n) - w
                lam_min, _, _ = symmetric_eigensystem(0.5 * (i_w + i_w.T))
                assert lam_min >= -1e-8 * np.linalg.norm(w)

    def test_ordering_compares_norm_with_sqrt_improvement(self):
        # 20 x 5, tau = 0.3, seed 1, uniform p: the norm exceeds 1 - lambda,
        # which is no fault, and stays below sqrt(1 - lambda), as proved.
        diag = compute_diagnostics(gaussian_instance(20, 5, 0.3, 1), np.full(20, 0.05))
        assert diag.expected_improvement < diag.norm_expectation
        assert diag.norm_expectation <= np.sqrt(diag.expected_improvement)
        assert diag.ordering_observed
        # Either link broken is reported: 0.71^2 > 1 - 0.5, and rho > norm.
        assert not RateDiagnostics(0.5, 0.5, 0.71).ordering_observed
        assert not RateDiagnostics(0.5, 0.6, 0.59).ordering_observed
        assert RateDiagnostics(0.5, 0.7, 0.7).ordering_observed
        # One row, where ||M||^2 = 1 - lambda exactly: with ||M|| = 2e-7 the
        # rounding of 1 - lambda (4e-14) puts its square root 3.6e-10 below
        # the norm, so the check compares the norm squared.
        one_row = make_system(np.array([[1.0, 0.0, 0.0]]), np.array([[1.0 - 2e-7, 0.3, 0.0]]),
                              np.zeros(1))
        diag = compute_diagnostics(one_row, [1.0], StepRule.INVERSE_ROW_NORM_A)
        assert diag.norm_expectation > np.sqrt(diag.expected_improvement) + 1e-10
        assert diag.ordering_observed

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(1, 12),
        n=st.integers(1, 12),
        tau=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        sparse=st.booleans(),
        rule=st.sampled_from(list(StepRule)),
        scheme=st.sampled_from(["uniform", "rownorm-a", "pairing", "some zero"]),
    )
    def test_ordering_chain_holds(self, m, n, tau, seed, sparse, rule, scheme):
        # rho <= ||I - V^T D A|| <= sqrt(1 - lambda) on tall and wide, dense
        # and CSR pairs under every step rule.  On a wide pair (m < n) the
        # chain holds on the coordinates (A Z, V Z) of rg V^T, where the
        # restricted rates are read.  ``ordering_observed`` allows each link
        # 1e-12 max(1, right side), the second compared squared: with one
        # row, M^T M = I - W exactly, and near lambda = 1 a square root of
        # 1 - lambda magnifies its rounding past 1e-12.
        rng = np.random.default_rng(seed)
        try:
            sys = (random_csr_system if sparse else random_system)(m, n, tau, rng)
            p = {
                "uniform": np.full(m, 1.0 / m),
                "rownorm-a": row_norm_probabilities(sys),
                "pairing": pairing_probabilities(sys),
                "some zero": some_distributions(rng, m)[2],
            }[scheme]
            diag = compute_diagnostics(sys, p, rule)
        except (InvalidInputError, NumericError):  # a vanishing row, a rank test
            assume(False)
        assert diag.restricted == (m < n)
        assert diag.ordering_observed
        assert "ordering_rho_le_norm_le_sqrt_improvement: true" in diag.report_lines()


class TestExpectationOperator:
    @pytest.mark.parametrize("name", GAUSSIAN_PIPELINES + ("ct",))
    def test_matrices_match_two_product_formulas(self, name):
        sys = (
            problems.build_ct_instance(8, 30.0, 12, 4) if name == "ct"
            else pipeline_instance(name)
        )
        p = row_norm_probabilities(sys)
        op = expectation_operator(sys)
        a, v, d = op.a, op.v, p * op.omega  # coordinates (A Z, V Z) when m < n
        vtda = v.T @ (d[:, None] * a)
        w = vtda + vtda.T - a.T @ ((op.s * d)[:, None] * a)
        op_w = op.w(p)
        assert np.linalg.norm(op.vtda(p) - vtda) <= 1e-13 * np.linalg.norm(vtda)
        assert np.linalg.norm(op_w - w) <= 1e-13 * np.linalg.norm(w)
        np.testing.assert_array_equal(op_w, op_w.T)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([(12, 5), (8, 8), (5, 12), (3, 20)]),
        st.sampled_from([0.0, 0.3, 0.8]),
        st.sampled_from(list(StepRule)),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_w_exactly_symmetric(self, shape, tau, rule, seed):
        # W = (G + G^T) / 2 is symmetric bit for bit, so the eigensolver
        # needs no skew check: on one operator read at several p, and on
        # coordinate rows, for m >= n and m < n.
        m, n = shape
        rng = np.random.default_rng(seed)
        sys = random_system(m, n, tau, rng)
        dists = some_distributions(rng, m)
        op = expectation_operator(sys, rule)
        z = oracles.range_basis(sys.v.T)
        coords = ExpectationOperator(sys.a @ z, sys.v @ z, op.omega, op.s)
        assert np.array_equal(coords.w(dists[0]), coords.w(dists[0]).T)
        for p in dists:
            w = op.w(p)
            assert np.array_equal(w, w.T)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([(12, 5), (8, 8), (5, 12)]),
        st.sampled_from(list(StepRule)),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.permutations(range(6)),
    )
    def test_matrices_match_fresh_operator_and_formula(self, shape, rule, seed, order):
        # Read at several p in any order, one operator gives, bit for bit,
        # the matrices of a fresh operator and of the formulas written out
        # in plain numpy in the same order of operations.
        m, n = shape
        rng = np.random.default_rng(seed)
        sys = random_system(m, n, 0.3, rng)
        dists = some_distributions(rng, m)
        op = expectation_operator(sys, rule)
        reads = [(name, p) for name in ("vtda", "w") for p in dists]
        for name, p in (reads[i] for i in order):
            got = getattr(op, name)(p)
            fresh = getattr(expectation_operator(sys, rule), name)(p)
            d = (p * op.omega)[:, None]
            if name == "vtda":
                formula = op.v.T @ (d * op.a)
            else:
                g = op.a.T @ ((2.0 * op.v - op.s[:, None] * op.a) * d)
                formula = 0.5 * (g + g.T)
            np.testing.assert_array_equal(got.view(np.int64), fresh.view(np.int64))
            np.testing.assert_array_equal(got.view(np.int64), formula.view(np.int64))

    def test_earlier_w_unchanged_by_later_read(self):
        sys = thresholded_instance(30, 8, 0.5, 3)
        op = expectation_operator(sys)
        p1 = row_norm_probabilities(sys)
        p2 = pairing_probabilities(sys)
        w1 = op.w(p1)
        kept = w1.copy()
        vtda1 = op.vtda(p1)
        kept_vtda = vtda1.copy()
        w2 = op.w(p2)
        op.vtda(p2)
        assert w2 is not w1
        np.testing.assert_array_equal(w1, kept)
        np.testing.assert_array_equal(vtda1, kept_vtda)
        assert not np.array_equal(w1, w2)

    @pytest.mark.parametrize(
        "m, rows, sizes",
        [
            (12, 12, [12]),  # one block: the single matrix product
            (12, 1, [1] * 12),  # one row per block
            (13, 5, [5, 5, 3]),  # a ragged last block
            (12, 4, [4, 4, 4]),  # an exact multiple
        ],
        ids=["one", "single-row", "ragged", "exact-multiple"],
    )
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 9),
        rule=st.sampled_from(list(StepRule)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_blocked_matrices_match_one_product(self, m, rows, sizes, n, rule, seed):
        # Summed over row blocks, W and V^T D A are the one-product formulas
        # bit for bit when the rows fit one block.  Over several blocks both
        # are sums of the same m computed terms in another order, each within
        # gamma_m = m u / (1 - m u) of the exact sum (u = 2^-53) times the sum
        # of the terms' moduli: they differ by at most 2 gamma_{m+2} times it,
        # which also covers the rounding of W's symmetrization.
        rng = np.random.default_rng(seed)
        sys = random_system(m, n, 0.3, rng)
        op = expectation_operator(sys, rule)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(diagnostics, "BLOCK_BYTES", 8 * n * rows)
            assert [b.stop - b.start for b in diagnostics._row_blocks(m, n)] == sizes
            for p in some_distributions(rng, m):
                d = (p * op.omega)[:, None]
                da = d * op.a
                dy = (2.0 * op.v - op.s[:, None] * op.a) * d
                g = op.a.T @ dy
                want = {"vtda": op.v.T @ da, "w": 0.5 * (g + g.T)}
                g_moduli = np.abs(op.a).T @ np.abs(dy)
                moduli = {
                    "vtda": np.abs(op.v).T @ np.abs(da),
                    "w": 0.5 * (g_moduli + g_moduli.T),
                }
                u = 2.0**-53
                gamma = (m + 2) * u / (1 - (m + 2) * u)
                for name in ("vtda", "w"):
                    got = getattr(op, name)(p)
                    if len(sizes) == 1:
                        np.testing.assert_array_equal(
                            got.view(np.int64), want[name].view(np.int64)
                        )
                    else:
                        assert np.all(np.abs(got - want[name]) <= 2 * gamma * moduli[name])
                w = op.w(p)
                np.testing.assert_array_equal(w, w.T)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 40), st.integers(1, 4000))
    def test_row_blocks_cover_the_rows_within_budget(self, m, n, budget):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(diagnostics, "BLOCK_BYTES", budget)
            blocks = diagnostics._row_blocks(m, n)
        most = max(1, budget // (8 * n))
        sizes = [b.stop - b.start for b in blocks]
        assert blocks[0].start == 0 and blocks[-1].stop == m
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert len(blocks) == -(-m // most)  # as few blocks as the budget allows
        assert max(sizes) <= most and min(sizes) >= 1
        assert all(size == sizes[0] for size in sizes[:-1])

    def test_iteration_matrix_is_identity_minus_bit_for_bit(self):
        # Signed zeros included: 0.0 - 0.0 is +0.0 off the diagonal, where a
        # negation would give -0.0.
        vtda = np.array([[1.0, 0.0, -0.0], [0.0, -0.0, 0.25], [-3.5, 0.0, 0.5]])
        want = np.eye(3) - vtda
        got = ExpectationOperator.iteration_matrix(vtda)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        rng = np.random.default_rng(5)
        vtda = rng.standard_normal((6, 6)) * (rng.random((6, 6)) < 0.5)
        got = ExpectationOperator.iteration_matrix(vtda)
        np.testing.assert_array_equal(got.view(np.int64), (np.eye(6) - vtda).view(np.int64))

    def test_iteration_matrix_built_per_call(self):
        sys = thresholded_instance(30, 8, 0.5, 3)
        op = expectation_operator(sys)
        vtda = op.vtda(row_norm_probabilities(sys))
        first = op.iteration_matrix(vtda)
        np.testing.assert_array_equal(first, np.eye(8) - vtda)
        assert op.iteration_matrix(vtda) is not first

    @pytest.mark.parametrize("k", [1, 5])  # 1 and m - 1 entries
    @pytest.mark.parametrize(
        "read",
        [
            lambda op, p: op.vtda(p),
            lambda op, p: op.w(p),
            lambda op, p: probopt.supergradient_lambda(op, p)[2],
            lambda op, p: probopt.subgradient_norm(op, p)[2],
            probopt.supergradient_lambda,
            probopt.subgradient_norm,
        ],
        ids=["expectation_operator", "w", "lambda_objective", "norm_objective",
             "supergradient_lambda", "subgradient_norm"],
    )
    def test_rejects_p_of_wrong_length(self, read, k):
        # A short p on the simplex would broadcast against omega unchecked.
        sys = thresholded_instance(6, 3, 0.2, 5)
        with pytest.raises(DimensionError):
            read(expectation_operator(sys), np.full(k, 1.0 / k))


class TestAnalysisMemory:
    """The analysis holds the pair, one row block and a few n x n matrices."""

    # 600 x 200 in blocks of 64 rows: the rows span ten blocks.  Before the
    # blocked sums the peaks were 8.25 (compute_diagnostics), 7.10 (lambda)
    # and 4.10 (norm) n x n matrices: 2V - S A and its scaled copy are each
    # three of them.  Now they are about 4.0, 2.1 and 3.1 plus the block.
    M, N, BLOCK_ROWS = 600, 200, 64

    def peak_above_system(self, call):
        sys = thresholded_instance(self.M, self.N, 0.5, 11)
        p = row_norm_probabilities(sys)
        warm = thresholded_instance(30, 10, 0.5, 11)
        call(warm, row_norm_probabilities(warm))
        tracemalloc.start()
        try:
            call(sys, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak

    @pytest.fixture(autouse=True)
    def budget(self, monkeypatch):
        monkeypatch.setattr(diagnostics, "BLOCK_BYTES", 8 * self.N * self.BLOCK_ROWS)
        assert len(diagnostics._row_blocks(self.M, self.N)) > 1
        return 8 * self.N * self.BLOCK_ROWS

    def test_diagnostics_peak(self, budget):
        peak = self.peak_above_system(compute_diagnostics)
        # I - V^T D A, its scaled copy, their Gram matrix and the
        # eigensolver's copy of it.
        assert peak <= 4.5 * 8 * self.N**2 + budget

    @pytest.mark.parametrize("objective", list(probopt.Objective), ids=lambda o: o.value)
    def test_optimizer_peak(self, budget, objective):
        cfg = probopt.ProbOptConfig(objective=objective, iterations=3)
        peak = self.peak_above_system(
            lambda sys, p: probopt.optimize_probabilities(sys, StepRule.OBLIQUE_EXACT, cfg)
        )
        assert peak <= 3.5 * 8 * self.N**2 + budget


class TestNormCrossCheck:
    """||M|| from the top singular pair against a full SVD and rho(M^T M)."""

    @pytest.mark.parametrize("name", GAUSSIAN_PIPELINES)
    def test_norm_matches_svd_and_gram_radius(self, name):
        sys = pipeline_instance(name)
        p = row_norm_probabilities(sys)
        vtda = expectation_operator(sys).vtda(p)  # fig3: range-restricted, m x m
        m = np.eye(vtda.shape[0]) - vtda
        sigma = top_singular_triplet(m).sigma
        assert sigma == pytest.approx(np.linalg.svd(m, compute_uv=False)[0], rel=1e-13)
        assert sigma**2 == pytest.approx(spectral_radius(m.T @ m), rel=1e-12)
        assert compute_diagnostics(sys, p).norm_expectation == pytest.approx(sigma, rel=1e-13)


class TestNoiseQuantities:
    def test_gamma_zero_noise(self):
        a = gen_gaussian(10, 3, 5)
        sys = assemble_inconsistent(a, a, 0.0, 5)
        assert noise_gamma(sys) == 0.0

    def test_gamma_worked_example(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        v = np.array([[1.0, 0.0], [0.0, 2.0]])
        sys = make_system(a, v, np.zeros(2), noise=np.array([1.0, -2.0]))
        assert noise_gamma(sys) == pytest.approx(2.0, abs=1e-14)

    def test_gamma_matches_bruteforce_loop(self):
        a = gen_gaussian(15, 6, 6)
        sys = assemble_inconsistent(a, mismatch_threshold(a, 0.4), 0.3, 6)
        best = 0.0
        for i in range(sys.m):
            best = max(
                best,
                abs(sys.noise[i])
                * np.linalg.norm(sys.v[i])
                / abs(sys.a[i] @ sys.v[i]),
            )
        assert noise_gamma(sys) == pytest.approx(best, rel=1e-12)

    def test_gamma_requires_noise(self):
        sys = make_system(np.eye(2), np.eye(2), np.ones(2))
        with pytest.raises(InvalidInputError):
            noise_gamma(sys)

    def test_bound_at_zero_iterations(self):
        assert inconsistent_bound(0, 0.5, 1.0, 4.0) == pytest.approx(4.0 + 4.0)

    def test_bound_pure_geometric_decay(self):
        assert inconsistent_bound(10, 0.2, 0.0, 1.0) == pytest.approx(0.9**10)

    def test_bound_limit_is_floor(self):
        assert inconsistent_bound(10**6, 0.01, 0.1, 100.0) == pytest.approx(
            2.0, abs=1e-6
        )

    def test_bound_rejects_nonpositive_lambda(self):
        with pytest.raises(NoGuaranteeError):
            inconsistent_bound(5, 0.0, 0.1, 1.0)

    def test_bound_takes_lambda_rounded_above_one_as_one(self):
        lam = np.nextafter(1.0, 2.0)
        assert inconsistent_bound(5, lam, 0.1, 1.0) == inconsistent_bound(5, 1.0, 0.1, 1.0)
        with pytest.raises(InvalidInputError, match=r"lambda = 1\.125 exceeds 1"):
            inconsistent_bound(5, 1.125, 0.1, 1.0)

    def test_fixed_point_zero_noise(self):
        a = gen_gaussian(10, 3, 7)
        sys = assemble_inconsistent(a, a, 0.0, 7)
        p = row_norm_probabilities(sys)
        assert compute_diagnostics(sys, p).fixed_point_error == 0.0

    def test_fixed_point_identity_worked_example(self):
        a = np.eye(2)
        sys = make_system(a, a, np.zeros(2), noise=np.array([0.1, -0.1]))
        value = compute_diagnostics(sys, [0.5, 0.5]).fixed_point_error
        assert value == pytest.approx(np.hypot(0.1, 0.1), rel=1e-12)

    def test_tall_singular_vtda_leaves_fixed_point_empty(self):
        # p is non-zero on 3 < n = 5 rows, so V^T D A (rank <= 3) is singular
        # although m >= n: the fixed-point solve fails and is reported empty.
        a = gen_gaussian(12, 5, 8)
        sys = assemble_inconsistent(a, mismatch_threshold(a, 0.3), 0.1, 8)
        p = np.zeros(12)
        p[:3] = 1.0 / 3.0
        op = expectation_operator(sys)
        with pytest.raises(SingularMatrixError):
            lu_solve(op.vtda(p), sys.v.T @ (p * op.omega * sys.noise))
        diag = compute_diagnostics(sys, p)
        assert not diag.restricted
        assert diag.gamma > 0
        assert diag.fixed_point_error is None
        full_support = compute_diagnostics(sys, row_norm_probabilities(sys))
        assert full_support.fixed_point_error > 0


class TestRestricted:
    def test_square_invertible_matches_unrestricted(self):
        # For m = n the coordinates in an orthonormal basis Z of rg V^T = R^n
        # give the plain rates.
        a = gen_gaussian(6, 6, 9)
        sys = assemble_consistent(a, mismatch_threshold(a, 0.3), 9)
        p = row_norm_probabilities(sys)
        plain = compute_diagnostics(sys, p)
        assert not plain.restricted
        z = oracles.range_basis(sys.v.T)
        plain_op = expectation_operator(sys)
        op = ExpectationOperator(sys.a @ z, sys.v @ z, plain_op.omega, plain_op.s)
        assert symmetric_eigensystem(op.w(p))[0] == pytest.approx(plain.lam, abs=1e-8)
        rho = spectral_radius(np.eye(6) - op.vtda(p))
        assert rho == pytest.approx(plain.rho_asymptotic, abs=1e-8)

    def test_single_row_exact_projection(self):
        sys = make_system(
            np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]), np.zeros(1)
        )
        res = compute_diagnostics(sys, np.array([1.0]))
        assert res.restricted
        assert res.lam == pytest.approx(1.0, abs=1e-12)
        assert res.rho_asymptotic == pytest.approx(0.0, abs=1e-12)

    def test_wide_instance_positive_lambda(self):
        sys = assemble_underdetermined(100, 500, 0.3, 3)
        res = compute_diagnostics(sys, np.full(100, 0.01))
        assert res.lam > 0
        assert res.rho_asymptotic < 1

    @pytest.mark.parametrize(
        "rule",
        [StepRule.OBLIQUE_EXACT, StepRule.INVERSE_ROW_NORM_A, StepRule.INVERSE_ROW_NORM_V],
        ids=lambda rule: rule.value,
    )
    def test_coordinates_match_conjugated_matrices(self, rule):
        # The operator on the rows of analysis_rows against Z^T W Z and
        # Z^T V^T D A Z formed from the n x n matrices, on fig3's default
        # instance, for the QR basis Z of rg V^T.  The two bases of rg V^T
        # differ by an orthogonal m x m factor, so the test compares what
        # that factor leaves unchanged: the spectrum of W, the singular
        # values of I - V^T D A, and the three rates.
        sys = pipeline_instance("fig3")
        p = row_norm_probabilities(sys)
        op = expectation_operator(sys, rule)
        d = p * op.omega
        vtda = sys.v.T @ (d[:, None] * sys.a)
        w = vtda + vtda.T - sys.a.T @ ((op.s * d)[:, None] * sys.a)
        z = oracles.range_basis(sys.v.T)
        w_z = z.T @ w @ z
        m_mat = np.eye(sys.m) - z.T @ vtda @ z
        scale = np.linalg.norm(w_z)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(op.w(p)), np.linalg.eigvalsh(w_z), rtol=0, atol=1e-13 * scale
        )
        np.testing.assert_allclose(
            np.linalg.svd(op.iteration_matrix(op.vtda(p)), compute_uv=False),
            np.linalg.svd(m_mat, compute_uv=False), rtol=0, atol=1e-13,
        )
        res = compute_diagnostics(sys, p, rule)
        assert res.restricted
        lam_z = symmetric_eigensystem(0.5 * (w_z + w_z.T))[0]
        assert res.lam == pytest.approx(lam_z, abs=1e-12)
        assert res.rho_asymptotic == pytest.approx(spectral_radius(m_mat), abs=1e-12)
        assert res.norm_expectation == pytest.approx(
            top_singular_triplet(m_mat).sigma, abs=1e-12
        )

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(3, 12),
        m_frac=st.floats(0.0, 1.0),
        tau=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        rule=st.sampled_from(list(StepRule)),
    )
    def test_gram_coordinates_match_reference(self, n, m_frac, tau, seed, rule):
        # On every wide thresholded system the QR reference accepts, the rows
        # of analysis_rows give its lambda, rho and norm.  Both bases of
        # rg V^T are orthonormal; the Gram one is computed through the
        # Cholesky factor of G = V V^T, so its error grows with kappa(G).
        # Tolerance: 100 kappa(G) eps, relative to ||W||_F for lambda and to
        # max(1, value) for rho and the norm; over 4000 random draws the
        # largest error was 3.3 kappa(G) eps.
        rng = np.random.default_rng(seed)
        sys = random_system(2 + int(m_frac * (n - 3)), n, tau, rng)
        try:
            reference_rows = oracles.reference_analysis_rows(sys)
        except NumericError:
            assume(False)
        op = expectation_operator(sys, rule)
        reference = ExpectationOperator(*reference_rows, op.omega, op.s)
        p = rng.dirichlet(np.ones(sys.m))
        tol = 100 * np.linalg.cond(sys.v @ sys.v.T) * np.finfo(float).eps
        w, w_ref = op.w(p), reference.w(p)
        lam_gap = symmetric_eigensystem(w)[0] - symmetric_eigensystem(w_ref)[0]
        assert abs(lam_gap) <= tol * np.linalg.norm(w_ref)
        m_mat = op.iteration_matrix(op.vtda(p))
        m_ref = reference.iteration_matrix(reference.vtda(p))
        for read in (spectral_radius, lambda mat: top_singular_triplet(mat).sigma):
            want = read(m_ref)
            assert abs(read(m_mat) - want) <= tol * max(1.0, want)

    def test_forms_no_n_by_n_matrix(self):
        sys = assemble_underdetermined(40, 400, 0.3, 3)
        p = row_norm_probabilities(sys)
        tracemalloc.start()
        try:
            compute_diagnostics(sys, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * sys.n**2  # one n x n float64 matrix

    def test_tall_system_reads_dense_rows(self):
        # m >= n: the analysis reads the system's own dense arrays, so the
        # unrestricted rates are unchanged bit for bit.  A CSR pair is made
        # dense on each call, into one array when v is a.
        sys = thresholded_instance(20, 5, 0.5, 10)
        a, v = analysis_rows(sys)
        assert a is sys.a and v is sys.v
        op = expectation_operator(sys)
        assert op.a is a and op.v is v
        csr_a, csr_v = scipy.sparse.csr_array(sys.a), scipy.sparse.csr_array(sys.v)
        a, v = analysis_rows(make_system(csr_a, csr_v, sys.b))
        np.testing.assert_array_equal(a, sys.a)
        np.testing.assert_array_equal(v, sys.v)
        a, v = analysis_rows(make_system(csr_a, csr_a, sys.b))
        assert v is a and isinstance(a, np.ndarray)
        np.testing.assert_array_equal(a, sys.a)

    def test_rejects_rank_deficient_rows(self):
        # One rank test on A V^T: rank-deficient rows, and full-rank A and V
        # whose A V^T is singular, are rejected alike.
        a = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        sys = make_system(a, a, np.zeros(2))
        with pytest.raises(RankDeficiencyError, match="A V\\^T has rank 1 < 2"):
            compute_diagnostics(sys, np.array([0.5, 0.5]))
        a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        v = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        sys = make_system(a, v, np.zeros(2))
        with pytest.raises(RankDeficiencyError, match="A V\\^T has rank 1 < 2"):
            compute_diagnostics(sys, np.array([0.5, 0.5]))

    def test_gram_cholesky_failure_is_rank_deficiency(self):
        # A V^T = [[1, 1], [0, 1]] passes its rank test, but V's rows differ
        # by 1e-9, so V V^T rounds to [[1, 1], [1, 1]] and fails its Cholesky
        # factorization: the failure is raised, not swallowed.
        a = np.array([[1.0, 0.0, 0.0], [0.0, 1e9, 0.0]])
        v = np.array([[1.0, 0.0, 0.0], [1.0, 1e-9, 0.0]])
        sys = make_system(a, v, np.zeros(2))
        with pytest.raises(RankDeficiencyError, match="V V\\^T is not positive definite"):
            compute_diagnostics(sys, np.array([0.5, 0.5]))


class TestAssembledDiagnostics:
    def test_auto_restricted_for_wide_systems(self):
        sys = assemble_underdetermined(20, 60, 0.3, 11)
        diag = compute_diagnostics(sys, np.full(20, 0.05))
        assert diag.restricted

    def test_noise_fields_filled(self):
        a = gen_gaussian(30, 8, 12)
        sys = assemble_inconsistent(a, mismatch_threshold(a, 0.4), 0.2, 12)
        diag = compute_diagnostics(sys, row_norm_probabilities(sys))
        assert diag.gamma > 0
        assert diag.fixed_point_error > 0

    def test_noisy_system_builds_expectation_operator_once(self, monkeypatch):
        a = gen_gaussian(60, 15, 14)
        sys = assemble_inconsistent(a, mismatch_threshold(a, 0.4), 0.1, 14)
        p = row_norm_probabilities(sys)
        calls = []
        build = diagnostics.expectation_operator

        def counted(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "expectation_operator", counted)
        diag = compute_diagnostics(sys, p)
        assert len(calls) == 1
        op = build(sys)
        fixed_point = lu_solve(op.vtda(p), sys.v.T @ (p * op.omega * sys.noise))
        assert diag.fixed_point_error == float(np.linalg.norm(fixed_point))

    def test_noisy_wide_system_solves_on_coordinates(self, monkeypatch):
        # The fixed point of a wide system is solved on its m x m coordinates:
        # the operator is built once and one m x m LU is factored.
        sys = gaussian_instance(40, 120, 0.5, 5, noise_scale=0.05)
        p = row_norm_probabilities(sys)
        builds, solved = [], []
        build, lu = diagnostics.expectation_operator, diagnostics.lu_solve

        def counted_build(*args, **kwargs):
            builds.append(1)
            return build(*args, **kwargs)

        def counted_lu(m, b):
            solved.append(m.shape)
            return lu(m, b)

        monkeypatch.setattr(diagnostics, "expectation_operator", counted_build)
        monkeypatch.setattr(diagnostics, "lu_solve", counted_lu)
        diag = compute_diagnostics(sys, p)
        assert diag.restricted
        assert len(builds) == 1 and solved == [(40, 40)]
        assert diag.gamma > 0
        op = build(sys)
        z = lu(op.vtda(p), op.v.T @ (p * op.omega * sys.noise))
        assert diag.fixed_point_error == float(np.linalg.norm(z))

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 12),
        n=st.integers(1, 12),
        tau=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        sparse=st.booleans(),
        rule=st.sampled_from(list(StepRule)),
    )
    def test_fixed_point_matches_reference_rows(self, m, n, tau, seed, sparse, rule):
        # ||z|| for V^T D A z = V^T D r on reference rows: the dense (A, V)
        # when m >= n, bit for bit, and the coordinates in the QR basis of
        # ``oracles.reference_analysis_rows`` when m < n.  The two bases of
        # rg V^T differ by an orthogonal factor, which leaves ||z|| alone up to
        # rounding magnified by kappa(V V^T) kappa(V^T D A): tolerance 100
        # kappa kappa eps; over 3870 wide draws the largest error was 2.8
        # kappa kappa eps, 2.0e-12 relative.
        rng = np.random.default_rng(seed)
        noise = 0.1 * rng.standard_normal(m)
        p = rng.dirichlet(np.ones(m))
        try:
            sys = (random_csr_system if sparse else random_system)(m, n, tau, rng, noise)
            diag = compute_diagnostics(sys, p, rule)
            rows = (
                (oracles.dense(sys.a), oracles.dense(sys.v)) if m >= n
                else oracles.reference_analysis_rows(sys)
            )
        except (InvalidInputError, NumericError):  # a vanishing row, a rank test
            assume(False)
        op = expectation_operator(sys, rule)
        reference = ExpectationOperator(*rows, op.omega, op.s)
        vtda = reference.vtda(p)
        try:
            z = lu_solve(vtda, reference.v.T @ (p * op.omega * noise))
        except SingularMatrixError:
            # Tall: the package solved the same matrix.  Wide: at the pivot
            # threshold the two bases may disagree.
            assume(m >= n)
            assert diag.fixed_point_error is None
            return
        want = float(np.linalg.norm(z))
        if m >= n:
            assert diag.fixed_point_error == want
        else:
            kappa = np.linalg.cond(rows[1] @ rows[1].T) * np.linalg.cond(vtda)
            assert abs(diag.fixed_point_error - want) <= 100 * kappa * np.finfo(float).eps * want

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_wide_run_ends_at_fixed_point(self, seed):
        # Wide pair, x* = V^T c: every row's hyperplane through b + r meets
        # rg V^T at x_bar = x* + V^T (A V^T)^-1 r, so a run from x0 = 0 ends
        # there, and its error at the reported ||x_bar - x*||.
        a = gen_gaussian(40, 120, seed)
        v = mismatch_threshold(a, 0.5)
        rng = np.random.default_rng(seed)
        truth = v.T @ rng.standard_normal(40)
        noise = 0.05 * rng.standard_normal(40)
        sys = make_system(a, v, a @ truth, noise=noise, truth=truth)
        p = row_norm_probabilities(sys)
        diag = compute_diagnostics(sys, p)
        gap = np.linalg.norm(v.T @ np.linalg.solve(a @ v.T, noise))
        assert diag.fixed_point_error == pytest.approx(gap, rel=1e-12, abs=0)
        trace = run(sys, p, SolverConfig(max_iterations=40000, log_stride=40000, seed=seed))
        assert abs(trace.error_norms[-1] - diag.fixed_point_error) <= 1e-10

    def test_zero_weights_keep_guarantee(self):
        # The guarantee reads lambda alone: the one-step identity holds for
        # any p on the simplex, zero entries included.
        sys = thresholded_instance(4, 2, 0.4, 13)
        p = np.array([0.5, 0.5, 0.0, 0.0])
        diag = compute_diagnostics(sys, p)
        assert diag.lam > 0
        assert diag.guarantees_convergence
        negative = RateDiagnostics(lam=-1e-3, rho_asymptotic=0.9, norm_expectation=1.1)
        assert not negative.guarantees_convergence

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(2, 10),
        n=st.integers(1, 5),
        tau=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        rule=st.sampled_from(list(StepRule)),
    )
    def test_zero_probabilities_keep_the_contraction(self, m, n, tau, seed, rule):
        # At a p with zero entries and lambda > 0, the exact one-step
        # expectation E||e_{k+1}||^2 = ||e||^2 - e^T W e is at most
        # (1 - lambda) ||e||^2.  Tolerance 1e-10 ||e||^2 (lambda and the
        # summed expectation are each exact to rounding).
        assume(m >= n)
        rng = np.random.default_rng(seed)
        base = random_system(m, n, tau, rng)
        sys = make_system(base.a, base.v, np.zeros(m), truth=np.zeros(n))
        p = some_distributions(rng, m)[2]
        assume(np.any(p == 0.0))
        diag = compute_diagnostics(sys, p, rule)
        assume(diag.lam > 0)
        x = rng.standard_normal(n)
        _, mean_sq = oracles.exact_one_step_expectation(sys, x, p, rule)
        e_sq = float(x @ x)
        assert mean_sq <= (1.0 - diag.lam) * e_sq + 1e-10 * e_sq

    def test_csv_row_matches_columns(self):
        diag = RateDiagnostics(
            lam=0.1, rho_asymptotic=0.9, norm_expectation=0.95,
            gamma=None, fixed_point_error=None,
        )
        row = diag.csv_row()
        assert len(row) == len(CSV_COLUMNS)
        assert row[0] == 0.1
        assert row[3] is None

    def test_report_lines_flat_key_value(self):
        sys = thresholded_instance(10, 4, 0.4, 14)
        diag = compute_diagnostics(sys, row_norm_probabilities(sys))
        lines = diag.report_lines()
        assert all(": " in line for line in lines)
        keys = [line.split(":")[0] for line in lines]
        assert "lambda" in keys and "rho" in keys and "norm" in keys
