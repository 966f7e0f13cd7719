"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is pinned here; seeds are fixed so the suite is
deterministic.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from kaczmarz_mismatch.diagnostics import (
    compute_diagnostics,
    expectation_operator,
    inconsistent_bound,
    noise_gamma,
)
from kaczmarz_mismatch.experiments import iterations_to_error, probability_scheme
from kaczmarz_mismatch.linalg import (
    lu_solve,
    spectral_radius,
    symmetric_eigensystem,
    top_singular_triplet,
)
from kaczmarz_mismatch.probopt import (
    Objective,
    ProbOptConfig,
    optimize_probabilities,
    project_simplex,
    subgradient_norm,
    supergradient_lambda,
)
from kaczmarz_mismatch.problems import (
    assemble_consistent,
    assemble_inconsistent,
    assemble_scaled_for_probopt,
    assemble_underdetermined,
    build_ct_instance,
    gen_gaussian,
    mismatch_threshold,
)
from kaczmarz_mismatch.solver import (
    SolverConfig,
    StepRule,
    make_system,
    run,
    run_replicates,
    static_step_sizes,
)

import oracles
from oracles import exact_one_step_expectation, rkma_step


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed <= budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.1f}s"
    )
    print(f"PASS criterion {number}: {description} ({elapsed:.1f}s)")


def mismatched_system(rng, m, n, tau):
    a = rng.standard_normal((m, n))
    v = np.where(np.abs(a) >= tau, a, 0.0)
    dead = ~v.any(axis=1)
    v[dead] = a[dead]
    truth = rng.standard_normal(n)
    return make_system(a, v, a @ truth, truth=truth)


def lam_at(sys, p):
    return supergradient_lambda(expectation_operator(sys), p)[2]


def norm_at(sys, p):
    return subgradient_norm(expectation_operator(sys), p)[2]


def test_criterion_01_hyperplane_exactness():
    with criterion(1, "oblique steps land exactly on the row hyperplane", 5.0):
        rng = np.random.default_rng(101)
        for _ in range(10**4):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(2, 9))
            sys = mismatched_system(rng, m, n, 0.3)
            x = rng.standard_normal(n)
            i = int(rng.integers(m))
            x_new = rkma_step(sys, x, i, StepRule.OBLIQUE_EXACT)
            beta = sys.rhs[i]
            gap = abs(sys.a[i] @ x_new - beta)
            assert gap <= 1e-10 * (
                abs(beta) + np.linalg.norm(sys.a[i]) * np.linalg.norm(x_new)
            )


def test_criterion_02_one_step_expectation_identities():
    with criterion(2, "exact one-step expectation matches the closed forms", 10.0):
        rng = np.random.default_rng(202)
        for _ in range(100):
            m = int(rng.integers(2, 21))
            n = int(rng.integers(2, 11))
            sys = mismatched_system(rng, m, n, 0.4)
            x = rng.standard_normal(n)
            p = rng.dirichlet(np.ones(m))
            mean, mean_sq = exact_one_step_expectation(
                sys, x, p, StepRule.OBLIQUE_EXACT
            )
            # Independent recomputation through the dense matrix forms.
            omega = static_step_sizes(sys, StepRule.OBLIQUE_EXACT)
            d_mat = np.diag(p * omega)
            s_mat = np.diag(omega * np.sum(sys.v**2, axis=1))
            e = x - sys.truth
            m_mat = np.eye(n) - sys.v.T @ d_mat @ sys.a
            scale = max(np.linalg.norm(e), 1.0)
            assert np.linalg.norm((mean - sys.truth) - m_mat @ e) <= 1e-10 * scale
            w = sys.v.T @ d_mat @ sys.a + sys.a.T @ d_mat @ sys.v \
                - sys.a.T @ s_mat @ d_mat @ sys.a
            expected_sq = e @ e - e @ (w @ e)
            assert mean_sq == pytest.approx(expected_sq, rel=1e-10, abs=1e-12)


def test_criterion_03_contraction_in_expectation():
    with criterion(3, "replicate-mean squared error obeys the (1-lambda)^k bound", 120.0):
        a = gen_gaussian(200, 50, 7)
        sys = assemble_consistent(a, mismatch_threshold(a, 0.5), 7)
        p = probability_scheme(sys, "rownorm-a")
        lam = compute_diagnostics(sys, p).lam
        assert lam > 0
        k = 2000
        stats = run_replicates(
            sys, p, SolverConfig(max_iterations=k, log_stride=k, seed=7), 200
        )
        mean_sq = stats.mean_sq_errors[-1]
        se = stats.sq_errors[-1].std(ddof=1) / np.sqrt(stats.sq_errors.shape[1])
        e0_sq = float(stats.sq_errors[0, 0])
        bound = (1.0 - lam) ** k * e0_sq
        assert mean_sq <= bound * (1.0 + 5.0 * se / mean_sq)


def test_criterion_04_paper_scale_rate_bands():
    with criterion(4, "500x200 instance hits the published rate bands", 120.0):
        a = gen_gaussian(500, 200, 1)
        sys = assemble_consistent(a, mismatch_threshold(a, 0.5), 1)
        p = probability_scheme(sys, "rownorm-a")
        diag = compute_diagnostics(sys, p)
        lam, rho = diag.lam, diag.rho_asymptotic
        assert 1 - 1.5e-3 <= 1 - lam <= 1 - 2e-4
        assert 1 - 2e-3 <= rho <= 1 - 3e-4


def test_criterion_05_noise_floor_and_fixed_point():
    with criterion(5, "noisy-system bound holds and the mean hits the fixed point", 300.0):
        a = gen_gaussian(200, 50, 2)
        sys = assemble_inconsistent(a, mismatch_threshold(a, 0.5), 0.05, 2)
        p = probability_scheme(sys, "rownorm-a")
        lam = compute_diagnostics(sys, p).lam
        gamma = noise_gamma(sys)
        assert lam > 0
        k_target = int(np.ceil(10.0 / lam))
        stats = run_replicates(
            sys, p,
            SolverConfig(max_iterations=k_target, log_stride=200, seed=2),
            500,
        )
        e0_sq = float(stats.sq_errors[0, 0])
        # (a) the replicate mean respects the theoretical envelope pointwise.
        for idx, k in enumerate(stats.logged_k):
            bound = inconsistent_bound(k, lam, gamma, e0_sq)
            assert stats.mean_sq_errors[idx] <= bound * 1.05
        # (b) the Monte-Carlo mean of x_k - truth matches the expectation
        # fixed point componentwise within 5 standard errors.
        d = p * expectation_operator(sys, StepRule.OBLIQUE_EXACT).omega
        vtda = sys.v.T @ (d[:, None] * sys.a)
        fixed_point = lu_solve(vtda, sys.v.T @ (d * sys.noise))
        diffs = stats.final_x - sys.truth
        mc_mean = diffs.mean(axis=0)
        mc_se = diffs.std(axis=0, ddof=1) / np.sqrt(diffs.shape[0])
        assert np.all(np.abs(mc_mean - fixed_point) <= 5.0 * mc_se)


def test_criterion_06_underdetermined_range_restricted():
    with criterion(6, "wide system: mismatched run converges, matched run plateaus", 120.0):
        sys = assemble_underdetermined(60, 300, 0.3, 3)
        p = probability_scheme(sys, "rownorm-a")
        diag = compute_diagnostics(sys, p)
        assert diag.restricted and diag.lam > 0
        cfg = SolverConfig(max_iterations=10**5, log_stride=2000, seed=3)
        trace = run(sys, p, cfg)
        e0 = trace.error_norms[0]
        assert iterations_to_error(trace, 1e-6 * e0) is not None
        # Iterates started at 0 stay in rg V^T, at every run length.
        z = oracles.range_basis(sys.v.T)
        finals = [
            run(sys, p, SolverConfig(max_iterations=k, log_stride=k, seed=3)).final_x
            for k in (1, 7, 2000)
        ]
        for x in finals + [trace.final_x]:
            norm_x = np.linalg.norm(x)
            assert norm_x > 0
            assert np.linalg.norm(x - z @ (z.T @ x)) <= 1e-8 * norm_x
        # Matched rows on the same instance stall at the range gap.
        sys_matched = make_system(sys.a, sys.a, sys.b, truth=sys.truth)
        trace_matched = run(
            sys_matched, p, SolverConfig(max_iterations=10**5, log_stride=2000, seed=3)
        )
        za = oracles.range_basis(sys.a.T)
        plateau = np.linalg.norm(sys.truth - za @ (za.T @ sys.truth))
        assert abs(trace_matched.error_norms[-1] - plateau) <= 0.1 * plateau


def test_criterion_07_gradient_oracles():
    with criterion(7, "finite differences confirm both gradient formulas", 60.0):
        rng = np.random.default_rng(707)
        instances = 0
        seed = 0
        while instances < 50:
            seed += 1
            sys = mismatched_system(np.random.default_rng(9000 + seed), 8, 5, 0.4)
            p = rng.dirichlet(np.ones(8))
            q = rng.dirichlet(np.ones(8))
            h = 1e-6

            op = expectation_operator(sys)
            g_lam, degenerate_lam, _ = supergradient_lambda(op, p)
            g_norm, degenerate_norm, _ = subgradient_norm(op, p)
            if degenerate_lam or degenerate_norm:
                continue
            dd_lam = g_lam @ (q - p)
            dd_norm = g_norm @ (q - p)
            if abs(dd_lam) < 1e-4 or abs(dd_norm) < 1e-4:
                continue
            instances += 1

            # Central differences at h = 1e-6 (the objectives extend smoothly
            # off the simplex, so the backward point is well defined).
            fd_lam = (
                lam_at(sys, p + h * (q - p))
                - lam_at(sys, p - h * (q - p))
            ) / (2 * h)
            fd_norm = (
                norm_at(sys, p + h * (q - p))
                - norm_at(sys, p - h * (q - p))
            ) / (2 * h)
            assert fd_lam == pytest.approx(dd_lam, rel=1e-4)
            assert fd_norm == pytest.approx(dd_norm, rel=1e-4)

            # First-order over/under-estimates and midpoint curvature checks.
            f_lam, f_norm = lam_at(sys, p), norm_at(sys, p)
            for probe in rng.dirichlet(np.ones(8), size=20):
                assert lam_at(sys, probe) <= f_lam + g_lam @ (probe - p) + 1e-8
                assert norm_at(sys, probe) >= f_norm + g_norm @ (probe - p) - 1e-8
            mid_p, mid_q = rng.dirichlet(np.ones(8), size=2)
            mid = 0.5 * (mid_p + mid_q)
            assert lam_at(sys, mid) >= 0.5 * (
                lam_at(sys, mid_p) + lam_at(sys, mid_q)
            ) - 1e-8
            assert norm_at(sys, mid) <= 0.5 * (
                norm_at(sys, mid_p) + norm_at(sys, mid_q)
            ) + 1e-8


def test_criterion_08_simplex_projection():
    with criterion(8, "simplex projection matches brute force and is optimal", 10.0):
        rng = np.random.default_rng(808)
        # Dense-grid oracle in 3 dimensions.
        step = 1e-3
        grid_1d = np.arange(0.0, 1.0 + step / 2, step)
        for _ in range(3):
            y = rng.uniform(-1.5, 1.5, size=3)
            p = project_simplex(y)
            best, best_dist = None, np.inf
            for p1 in grid_1d:
                p2 = np.arange(0.0, 1.0 - p1 + step / 2, step)
                cand = np.column_stack([np.full_like(p2, p1), p2, 1.0 - p1 - p2])
                dists = np.sum((cand - y) ** 2, axis=1)
                i = int(np.argmin(dists))
                if dists[i] < best_dist:
                    best_dist, best = dists[i], cand[i]
            assert np.linalg.norm(p - best) <= 1e-3 * np.sqrt(3)
        # Variational inequality on 1000 random 50-dimensional points.
        for _ in range(1000):
            y = rng.uniform(-2.0, 2.0, size=50)
            p = project_simplex(y)
            q = rng.dirichlet(np.ones(50), size=20)
            assert np.max((q - p) @ (y - p)) <= 1e-10
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) <= 1e-12


def test_criterion_09_probability_optimization_orderings():
    with criterion(9, "optimized probabilities beat the named schemes", 300.0):
        sys = assemble_scaled_for_probopt(150, 50, 0.05, 5)
        p_uniform = probability_scheme(sys, "uniform")
        p_pairing = probability_scheme(sys, "pairing")
        opt_lam = optimize_probabilities(
            sys, StepRule.OBLIQUE_EXACT,
            ProbOptConfig(objective=Objective.MAX_LAMBDA_MIN, iterations=500),
        )
        opt_norm = optimize_probabilities(
            sys, StepRule.OBLIQUE_EXACT,
            ProbOptConfig(objective=Objective.MIN_SPECTRAL_NORM, iterations=500),
        )
        lam_uniform = lam_at(sys, p_uniform)
        lam_pairing = lam_at(sys, p_pairing)
        assert opt_lam.best_objective > max(lam_uniform, lam_pairing)
        norm_uniform = norm_at(sys, p_uniform)
        norm_pairing = norm_at(sys, p_pairing)
        assert opt_norm.best_objective < min(norm_uniform, norm_pairing)
        # Optimized rows solve faster than uniform rows to the same target, on
        # average over solver seeds: single runs can tie at the log resolution.
        iters_uniform, iters_opt = [], []
        for seed in range(8):
            cfg = SolverConfig(max_iterations=6 * 10**4, log_stride=100, seed=seed)
            iters_uniform.append(iterations_to_error(run(sys, p_uniform, cfg), 1e-6))
            iters_opt.append(iterations_to_error(run(sys, opt_lam.best_p, cfg), 1e-6))
        assert None not in iters_uniform and None not in iters_opt
        assert np.mean(iters_opt) < np.mean(iters_uniform)


def test_criterion_10_ct_reconstruction_advantage():
    with criterion(10, "bin-averaged backprojector reconstructs markedly better", 300.0):
        ratios = []
        for seed in range(5):
            sys = build_ct_instance(32, 5.0, 90, seed)
            sys_matched = make_system(sys.a, sys.a, sys.b, truth=sys.truth)
            cfg = SolverConfig(
                max_iterations=20 * sys.m, log_stride=sys.m, seed=seed
            )
            err_mis = run(sys, probability_scheme(sys, "pairing"), cfg).error_norms[-1]
            err_matched = run(
                sys_matched, probability_scheme(sys_matched, "rownorm-a"), cfg
            ).error_norms[-1]
            ratios.append(err_mis / err_matched)
        assert np.mean(ratios) <= 0.6


def test_criterion_11_linalg_kernel_oracles():
    with criterion(11, "eigen/singular kernels agree with independent oracles", 30.0):
        rng = np.random.default_rng(1111)
        checked = 0
        # Smallest symmetric eigenvalue vs Sturm bisection.
        for _ in range(40):
            n = int(rng.integers(2, 51))
            g = rng.standard_normal((n, n))
            m = 0.5 * (g + g.T)
            lam, _, _ = symmetric_eigensystem(m)
            assert lam == pytest.approx(
                oracles.sturm_smallest_eig(m), rel=1e-8, abs=1e-8
            )
            checked += 1
        # Top singular value vs power iteration (gap-screened).
        done = 0
        trial = 0
        while done < 40:
            trial += 1
            rows = int(rng.integers(2, 51))
            cols = int(rng.integers(2, 51))
            m = rng.standard_normal((rows, cols))
            s = np.linalg.svd(m, compute_uv=False)
            if len(s) > 1 and s[1] > 0.995 * s[0]:
                continue  # power iteration needs a usable gap
            sigma = top_singular_triplet(m).sigma
            assert sigma == pytest.approx(oracles.power_top_sigma(m, seed=trial), rel=1e-8)
            done += 1
            checked += 1
        # Spectral radius vs constructed spectra and characteristic roots.
        for trial in range(15):
            n_real = int(rng.integers(1, 20))
            n_pairs = int(rng.integers(1, 16))
            reals = rng.uniform(-3, 3, size=n_real)
            pairs = [tuple(rng.uniform(-3, 3, size=2)) for _ in range(n_pairs)]
            m, rho_exact = oracles.matrix_with_known_spectrum(
                reals, pairs, seed=5000 + trial
            )
            assert spectral_radius(m) == pytest.approx(rho_exact, rel=1e-8, abs=1e-9)
            checked += 1
        for _ in range(15):
            n = int(rng.integers(2, 9))
            m = rng.standard_normal((n, n))
            assert spectral_radius(m) == pytest.approx(
                oracles.charpoly_spectral_radius(m), rel=1e-8, abs=1e-9
            )
            checked += 1
        assert checked >= 100
