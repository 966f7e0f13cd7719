import numpy as np
import pytest

from kaczmarz_mismatch import diagnostics
from kaczmarz_mismatch.diagnostics import (
    CSV_COLUMNS,
    RateDiagnostics,
    asymptotic_rate,
    compute_diagnostics,
    contraction_lambda,
    expectation_norm,
    expected_fixed_point_error,
    inconsistent_bound,
    noise_gamma,
    restricted_diagnostics,
    scaling,
)
from kaczmarz_mismatch.errors import (
    InvalidInputError,
    NoGuaranteeError,
    RankDeficiencyError,
    SingularMatrixError,
)
from kaczmarz_mismatch.linalg import symmetric_eig_min
from kaczmarz_mismatch.problems import (
    assemble_consistent,
    assemble_inconsistent,
    assemble_scaled_for_probopt,
    assemble_underdetermined,
    gaussian_instance,
    gen_gaussian,
    mismatch_threshold,
)
from kaczmarz_mismatch.solver import StepRule, make_system


def thresholded_instance(m, n, tau, seed):
    a = gen_gaussian(m, n, seed)
    return assemble_consistent(a, mismatch_threshold(a, tau), seed)


def row_norm_probabilities(sys):
    p = sys.row_norms_sq("a")
    return p / p.sum()


def pairing_probabilities(sys):
    return sys.pairing / sys.pairing.sum()


class TestScaling:
    def test_matched_row_norm_probabilities(self):
        # V = A with squared-row-norm probabilities: D = I / ||A||_F^2, S = I.
        a = gen_gaussian(10, 4, 0)
        sys = make_system(a, a, a @ np.zeros(4))
        p = row_norm_probabilities(sys)
        pair = scaling(sys, p, StepRule.OBLIQUE_EXACT)
        fro_sq = np.linalg.norm(a) ** 2
        np.testing.assert_allclose(pair.d, np.full(10, 1.0 / fro_sq), rtol=1e-12)
        np.testing.assert_allclose(pair.s, np.ones(10), rtol=1e-12)

    def test_pairing_probabilities_give_constant_d(self):
        sys = thresholded_instance(12, 5, 0.4, 1)
        p = pairing_probabilities(sys)
        pair = scaling(sys, p, StepRule.OBLIQUE_EXACT)
        norm_v_sq = float(sys.pairing.sum())
        np.testing.assert_allclose(pair.d, np.full(12, 1.0 / norm_v_sq), rtol=1e-12)

    def test_single_row(self):
        sys = make_system(
            np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]), np.zeros(1)
        )
        pair = scaling(sys, np.array([1.0]), StepRule.OBLIQUE_EXACT)
        np.testing.assert_allclose(pair.d, [1.0])
        np.testing.assert_allclose(pair.s, [1.0])
        np.testing.assert_allclose(pair.pairing, [1.0])

    def test_adaptive_rule_rejected(self):
        sys = thresholded_instance(5, 3, 0.4, 2)
        with pytest.raises(InvalidInputError):
            scaling(sys, np.full(5, 0.2), StepRule.ADAPTIVE_V_HYPERPLANE)


class TestContractionLambda:
    def test_identity_half(self):
        sys = make_system(np.eye(2), np.eye(2), np.zeros(2))
        assert contraction_lambda(sys, [0.5, 0.5]) == pytest.approx(0.5, abs=1e-12)

    def test_matched_closed_form(self):
        a = gen_gaussian(20, 6, 3)
        sys = make_system(a, a, np.zeros(20))
        p = row_norm_probabilities(sys)
        lam = contraction_lambda(sys, p)
        expected = symmetric_eig_min(a.T @ a)[0] / np.linalg.norm(a) ** 2
        assert lam == pytest.approx(expected, rel=1e-10)

    def test_paper_scale_band(self):
        sys = thresholded_instance(500, 200, 0.5, 1)
        lam = contraction_lambda(sys, row_norm_probabilities(sys))
        assert 2e-4 <= lam <= 1.5e-3


class TestRateExpressions:
    def test_identity_rate(self):
        sys = make_system(np.eye(2), np.eye(2), np.zeros(2))
        assert asymptotic_rate(sys, [0.5, 0.5]) == pytest.approx(0.5, abs=1e-12)
        assert expectation_norm(sys, [0.5, 0.5]) == pytest.approx(0.5, abs=1e-12)

    def test_paper_scale_rho_band(self):
        sys = thresholded_instance(500, 200, 0.5, 1)
        rho = asymptotic_rate(sys, row_norm_probabilities(sys))
        assert 1 - 2e-3 <= rho <= 1 - 3e-4

    def test_matched_case_all_three_equal(self):
        for seed in range(3):
            a = gen_gaussian(15, 5, seed)
            sys = make_system(a, a, np.zeros(15))
            p = np.random.default_rng(seed).random(15)
            p /= p.sum()
            lam = contraction_lambda(sys, p)
            rho = asymptotic_rate(sys, p)
            nrm = expectation_norm(sys, p)
            assert abs((1 - lam) - rho) <= 1e-8
            assert abs((1 - lam) - nrm) <= 1e-8

    def test_norm_identity_against_expanded_product(self):
        from kaczmarz_mismatch.linalg import spectral_radius

        sys = thresholded_instance(25, 8, 0.5, 4)
        p = row_norm_probabilities(sys)
        pair = scaling(sys, p)
        vtda = sys.v.T @ (pair.d[:, None] * sys.a)
        m = np.eye(8) - vtda
        expanded = np.eye(8) - vtda - vtda.T + vtda.T @ vtda
        nrm = expectation_norm(sys, p)
        assert nrm**2 == pytest.approx(spectral_radius(expanded), rel=1e-8)

    def test_scaled_zeroed_instance_norm_band(self):
        # 300x100 row-scaled instance with 5% zeroed surrogate entries at
        # uniform probabilities: the expectation norm sits just below 1
        # (published value for this setup: 0.998029; seed-dependent band).
        sys = assemble_scaled_for_probopt(300, 100, 0.05, 5)
        nrm = expectation_norm(sys, np.full(300, 1 / 300))
        assert 0.995 <= nrm <= 0.9995

    def test_rho_never_exceeds_norm(self):
        for seed in range(5):
            sys = thresholded_instance(30, 10, 0.5, seed)
            p = row_norm_probabilities(sys)
            assert asymptotic_rate(sys, p) <= expectation_norm(sys, p) + 1e-8

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
                pair = scaling(sys, p, rule)
                vtda = sys.v.T @ (pair.d[:, None] * sys.a)
                atsda = sys.a.T @ ((pair.s * pair.d)[:, None] * sys.a)
                w = vtda + vtda.T - atsda
                lam_min, _ = symmetric_eig_min(np.eye(sys.n) - w)
                assert lam_min >= -1e-8 * np.linalg.norm(w)

    def test_ordering_recorded_not_asserted(self):
        sys = thresholded_instance(30, 10, 0.5, 20)
        diag = compute_diagnostics(sys, row_norm_probabilities(sys))
        assert isinstance(diag.ordering_observed, bool)


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

    def test_fixed_point_zero_noise(self):
        a = gen_gaussian(10, 3, 7)
        sys = assemble_inconsistent(a, a, 0.0, 7)
        p = row_norm_probabilities(sys)
        assert expected_fixed_point_error(sys, p) == 0.0

    def test_fixed_point_identity_worked_example(self):
        a = np.eye(2)
        sys = make_system(a, a, np.zeros(2), noise=np.array([0.1, -0.1]))
        value = expected_fixed_point_error(sys, [0.5, 0.5])
        assert value == pytest.approx(np.hypot(0.1, 0.1), rel=1e-12)

    def test_fixed_point_requires_invertible_vtda(self):
        sys = assemble_underdetermined(5, 12, 0.3, 8)
        noisy = make_system(
            sys.a, sys.v, sys.b, noise=np.full(5, 0.1), truth=sys.truth
        )
        with pytest.raises(SingularMatrixError):
            expected_fixed_point_error(noisy, np.full(5, 0.2))


class TestRestricted:
    def test_square_invertible_matches_unrestricted(self):
        a = gen_gaussian(6, 6, 9)
        sys = assemble_consistent(a, mismatch_threshold(a, 0.3), 9)
        p = row_norm_probabilities(sys)
        res = restricted_diagnostics(sys, p)
        assert res.restricted
        assert res.lam == pytest.approx(contraction_lambda(sys, p), abs=1e-8)
        assert res.rho_asymptotic == pytest.approx(asymptotic_rate(sys, p), abs=1e-8)

    def test_single_row_exact_projection(self):
        sys = make_system(
            np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]), np.zeros(1)
        )
        res = restricted_diagnostics(sys, np.array([1.0]))
        assert res.lam == pytest.approx(1.0, abs=1e-12)
        assert res.rho_asymptotic == pytest.approx(0.0, abs=1e-12)

    def test_wide_instance_positive_lambda(self):
        sys = assemble_underdetermined(100, 500, 0.3, 3)
        res = restricted_diagnostics(sys, np.full(100, 0.01))
        assert res.lam > 0
        assert res.rho_asymptotic < 1

    def test_rejects_tall_systems(self):
        sys = thresholded_instance(20, 5, 0.5, 10)
        with pytest.raises(InvalidInputError):
            restricted_diagnostics(sys, row_norm_probabilities(sys))

    def test_rejects_rank_deficient_rows(self):
        a = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        sys = make_system(a, a, np.zeros(2))
        with pytest.raises(RankDeficiencyError):
            restricted_diagnostics(sys, np.array([0.5, 0.5]))


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
        assert diag.fixed_point_error == expected_fixed_point_error(sys, p)

    def test_noisy_wide_system_skips_fixed_point(self, monkeypatch):
        # V^T D A has rank <= m < n: neither built again nor LU-factored.
        sys = gaussian_instance(40, 120, 0.5, 5, noise_scale=0.05)
        p = row_norm_probabilities(sys)
        calls = {"build": 0, "lu": 0}
        build, lu = diagnostics.expectation_operator, diagnostics.lu_solve

        def counted_build(*args, **kwargs):
            calls["build"] += 1
            return build(*args, **kwargs)

        def counted_lu(*args, **kwargs):
            calls["lu"] += 1
            return lu(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "expectation_operator", counted_build)
        monkeypatch.setattr(diagnostics, "lu_solve", counted_lu)
        diag = compute_diagnostics(sys, p)
        assert diag.restricted
        assert calls == {"build": 1, "lu": 0}
        assert diag.gamma > 0
        assert diag.fixed_point_error is None

    def test_positivity_flag(self):
        sys = thresholded_instance(4, 2, 0.4, 13)
        p = np.array([0.5, 0.5, 0.0, 0.0])
        diag = compute_diagnostics(sys, p)
        assert not diag.positivity_ok
        assert not diag.guarantees_convergence

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
