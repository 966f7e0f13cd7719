import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kaczmarz_mismatch import diagnostics, problems
from kaczmarz_mismatch.diagnostics import (
    ExpectationOperator,
    analysis_rows,
    compute_diagnostics,
    expectation_operator,
)
from kaczmarz_mismatch.errors import InvalidInputError, NumericError
from kaczmarz_mismatch.probopt import (
    Objective,
    ProbOptConfig,
    optimize_probabilities,
    project_simplex,
    subgradient_norm,
    supergradient_lambda,
)
from kaczmarz_mismatch.problems import (
    assemble_scaled_for_probopt,
    assemble_underdetermined,
    gen_gaussian,
    mismatch_threshold,
)
from kaczmarz_mismatch.solver import StepRule, make_system


def mismatched_instance(m, n, tau, seed):
    a = gen_gaussian(m, n, seed)
    v = mismatch_threshold(a, tau)
    dead = ~v.any(axis=1)
    v[dead] = a[dead]
    return make_system(a, v, np.zeros(m))


def random_simplex(rng, m, size=None):
    return rng.dirichlet(np.ones(m), size=size)


def lambda_objective(op, p):
    """lambda_min(W(p)) as the optimizer reads it: its supergradient's third element."""
    return supergradient_lambda(op, p)[2]


def norm_objective(op, p):
    """||I - V^T D A|| as the optimizer reads it: its subgradient's third element."""
    return subgradient_norm(op, p)[2]


def lam_at(sys, p, rule=StepRule.OBLIQUE_EXACT):
    return lambda_objective(expectation_operator(sys, rule), p)


def norm_at(sys, p, rule=StepRule.OBLIQUE_EXACT):
    return norm_objective(expectation_operator(sys, rule), p)


@st.composite
def norm_subgradient_cases(draw):
    """(system, p, static rule, probe generator) for the norm subgradient.

    Either a random thresholded system with a Dirichlet p, or A = V = I with
    uniform p, where every singular value of I - V^T D A is tied.  A wide
    system must meet the restricted analysis's rank conditions.
    """
    rule = draw(st.sampled_from(list(StepRule)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        m = draw(st.integers(2, 8))
        return make_system(np.eye(m), np.eye(m), np.zeros(m)), np.full(m, 1 / m), rule, rng
    m = draw(st.integers(2, 12))
    sys = mismatched_instance(m, draw(st.integers(1, 8)), draw(st.floats(0.0, 1.0)), seed)
    try:
        analysis_rows(sys)
    except NumericError:
        assume(False)  # thresholding cost V its rank, or made A V^T singular
    return sys, random_simplex(rng, m), rule, rng


@st.composite
def wide_cases(draw):
    """(system, p, static rule, probe generator) on a wide thresholded system.

    A V^T has rank m (so A and V have full row rank), so the objectives
    are the restricted ones, read on the coordinates (A Z, V Z).
    """
    rule = draw(st.sampled_from(list(StepRule)))
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(3, 10))
    sys = mismatched_instance(draw(st.integers(2, n - 1)), n, draw(st.floats(0.0, 1.0)), seed)
    try:
        analysis_rows(sys)
    except NumericError:
        assume(False)  # thresholding cost V its rank, or made A V^T singular
    rng = np.random.default_rng(seed)
    return sys, random_simplex(rng, sys.m), rule, rng


class TestProjectSimplex:
    def test_already_on_simplex(self):
        y = np.array([0.3, 0.3, 0.4])
        np.testing.assert_allclose(project_simplex(y), y, atol=1e-15)

    def test_single_large_coordinate(self):
        np.testing.assert_allclose(project_simplex([2.0, 0.0]), [1.0, 0.0], atol=1e-15)

    def test_symmetric_split(self):
        np.testing.assert_allclose(project_simplex([1.0, 1.0]), [0.5, 0.5], atol=1e-15)

    def test_matches_dense_grid_search_3d(self):
        # Brute-force oracle: enumerate the 3-simplex on a fine barycentric
        # grid and take the closest point.
        step = 1e-3
        grid_1d = np.arange(0.0, 1.0 + step / 2, step)
        rng = np.random.default_rng(0)
        for _ in range(5):
            y = rng.uniform(-1.5, 1.5, size=3)
            p = project_simplex(y)
            best = None
            best_dist = np.inf
            for p1 in grid_1d:
                p2 = np.arange(0.0, 1.0 - p1 + step / 2, step)
                cand = np.column_stack([np.full_like(p2, p1), p2, 1.0 - p1 - p2])
                dists = np.sum((cand - y) ** 2, axis=1)
                i = int(np.argmin(dists))
                if dists[i] < best_dist:
                    best_dist = dists[i]
                    best = cand[i]
            assert np.linalg.norm(p - best) <= 1e-3 * np.sqrt(3)

    def test_variational_inequality(self):
        # <y - p, q - p> <= 0 for every simplex point q characterizes the
        # Euclidean projection.
        rng = np.random.default_rng(1)
        for _ in range(50):
            y = rng.uniform(-2, 2, size=50)
            p = project_simplex(y)
            q = random_simplex(rng, 50, size=100)
            inner = (q - p) @ (y - p)
            assert np.max(inner) <= 1e-10

    def test_simplex_membership(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = project_simplex(rng.uniform(-5, 5, size=200))
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) <= 1e-12

    def test_idempotent_and_nonexpansive(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            y1 = rng.uniform(-2, 2, size=20)
            y2 = rng.uniform(-2, 2, size=20)
            p1 = project_simplex(y1)
            p2 = project_simplex(y2)
            np.testing.assert_allclose(project_simplex(p1), p1, atol=1e-12)
            assert np.linalg.norm(p1 - p2) <= np.linalg.norm(y1 - y2) + 1e-12


vectors = st.integers(min_value=1, max_value=40).flatmap(
    lambda n: arrays(np.float64, n, elements=st.floats(-1e3, 1e3))
)


@st.composite
def vector_and_simplex_point(draw):
    y = draw(vectors)
    w = draw(arrays(np.float64, len(y), elements=st.floats(0.0, 1.0)))
    w[draw(st.integers(0, len(y) - 1))] = 1.0  # keep the weights off zero
    return y, w / math.fsum(w.tolist())


class TestProjectSimplexProperties:
    @settings(max_examples=60, deadline=None)
    @given(vectors)
    def test_on_simplex(self, y):
        p = project_simplex(y)
        assert p.shape == y.shape
        assert np.all(p >= 0)
        assert abs(math.fsum(p.tolist()) - 1.0) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(vectors)
    def test_idempotent(self, y):
        p = project_simplex(y)
        np.testing.assert_allclose(project_simplex(p), p, rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(vector_and_simplex_point())
    def test_optimal(self, case):
        # <y - P(y), q - P(y)> <= 0 for every simplex point q characterizes
        # the Euclidean projection.
        y, q = case
        p = project_simplex(y)
        scale = 1.0 + np.abs(y).max()
        assert (y - p) @ (q - p) <= 1e-12 * scale


class TestSupergradientLambda:
    def test_matched_identity_closed_form(self):
        # A = V = I2, p = (0.3, 0.7): W = diag(0.3, 0.7), minimal eigenvector
        # e1, supergradient (1, 0).
        sys = make_system(np.eye(2), np.eye(2), np.zeros(2))
        g, degenerate, _ = supergradient_lambda(expectation_operator(sys), np.array([0.3, 0.7]))
        np.testing.assert_allclose(g, [1.0, 0.0], atol=1e-12)
        assert not degenerate

    def test_concavity_overestimate(self):
        rng = np.random.default_rng(4)
        for seed in range(5):
            sys = mismatched_instance(8, 5, 0.4, seed)
            p = random_simplex(rng, 8)
            f_p = lam_at(sys, p)
            g, _, _ = supergradient_lambda(expectation_operator(sys), p)
            for q in random_simplex(rng, 8, size=200):
                assert lam_at(sys, q) <= f_p + g @ (q - p) + 1e-10

    def test_finite_difference_match(self):
        rng = np.random.default_rng(5)
        checked = 0
        seed = 0
        while checked < 20:
            seed += 1
            sys = mismatched_instance(8, 5, 0.4, seed)
            p = random_simplex(rng, 8)
            g, degenerate, _ = supergradient_lambda(expectation_operator(sys), p)
            if degenerate:
                continue
            q = random_simplex(rng, 8)
            dd_exact = g @ (q - p)
            if abs(dd_exact) < 1e-6:
                continue
            h = 1e-6
            dd_fd = (lam_at(sys, p + h * (q - p)) - lam_at(sys, p)) / h
            assert dd_fd == pytest.approx(dd_exact, rel=1e-4)
            checked += 1

    def test_midpoint_concavity(self):
        rng = np.random.default_rng(6)
        sys = mismatched_instance(10, 6, 0.4, 7)
        for _ in range(100):
            p, q = random_simplex(rng, 10, size=2)
            mid = lam_at(sys, 0.5 * (p + q))
            assert mid >= 0.5 * (lam_at(sys, p) + lam_at(sys, q)) - 1e-10


class TestSubgradientNorm:
    def test_matched_identity_magnitudes(self):
        # V = A = I2 with row-norm probabilities: I - V^T D A = I/2, every
        # unit vector is a singular pair; magnitude is half the squared
        # coordinates of each row over its squared norm.
        sys = make_system(np.eye(2), np.eye(2), np.zeros(2))
        p = np.array([0.5, 0.5])
        g, _, _ = subgradient_norm(expectation_operator(sys), p)
        # The singular pair fixes the sign, so even this fully tied point
        # gets a genuine subgradient.
        rng = np.random.default_rng(8)
        f_p = norm_at(sys, p)
        for q in random_simplex(rng, 2, size=100):
            assert norm_at(sys, q) >= f_p + g @ (q - p) - 1e-8

    @settings(max_examples=60, deadline=None)
    @given(norm_subgradient_cases())
    def test_convexity_underestimate(self, case):
        sys, p, rule, rng = case
        g, _, value = subgradient_norm(expectation_operator(sys, rule), p)
        f_p = norm_at(sys, p, rule)
        assert value == f_p
        probes = np.vstack([np.eye(sys.m), random_simplex(rng, sys.m, size=100)])
        for q in probes:
            assert norm_at(sys, q, rule) >= f_p + g @ (q - p) - 1e-8

    def test_finite_difference_match(self):
        rng = np.random.default_rng(10)
        checked = 0
        seed = 0
        while checked < 20:
            seed += 1
            sys = mismatched_instance(8, 5, 0.4, 40 + seed)
            p = random_simplex(rng, 8)
            g, degenerate, _ = subgradient_norm(expectation_operator(sys), p)
            if degenerate:
                continue
            q = random_simplex(rng, 8)
            dd_exact = g @ (q - p)
            if abs(dd_exact) < 1e-6:
                continue
            h = 1e-6
            dd_fd = (norm_at(sys, p + h * (q - p)) - norm_at(sys, p)) / h
            assert dd_fd == pytest.approx(dd_exact, rel=1e-4)
            checked += 1

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(11)
        sys = mismatched_instance(10, 6, 0.4, 60)
        for _ in range(100):
            p, q = random_simplex(rng, 10, size=2)
            mid = norm_at(sys, 0.5 * (p + q))
            assert mid <= 0.5 * (norm_at(sys, p) + norm_at(sys, q)) + 1e-10


class TestRestrictedGradients:
    """On m < n both gradients are those of the restricted objectives."""

    @settings(max_examples=60, deadline=None)
    @given(wide_cases())
    def test_central_differences_and_gradient_inequality(self, case):
        sys, p, rule, rng = case
        probes = np.vstack([np.eye(sys.m), random_simplex(rng, sys.m, size=30)])
        q = random_simplex(rng, sys.m)
        h = 1e-6
        # sign = +1: a supergradient of a concave objective; -1: a subgradient
        # of a convex one.
        for at, gradient, sign in (
            (lam_at, supergradient_lambda, 1.0),
            (norm_at, subgradient_norm, -1.0),
        ):
            g, degenerate, value = gradient(expectation_operator(sys, rule), p)
            assert value == at(sys, p, rule)
            for r in probes:
                assert sign * (at(sys, r, rule) - value - g @ (r - p)) <= 1e-8
            if not degenerate:
                forward, backward = p + h * (q - p), p - h * (q - p)
                fd = (at(sys, forward, rule) - at(sys, backward, rule)) / (2 * h)
                assert fd == pytest.approx(g @ (q - p), rel=1e-4, abs=1e-7)


class TestOneMatrixPerObjective:
    """Each objective's gradient forms only the expectation matrix it reads."""

    @staticmethod
    def recorded_reads(op):
        reads = []
        for name in ("vtda", "w"):
            def read(p, _name=name, _original=getattr(op, name)):
                reads.append(_name)
                return _original(p)

            setattr(op, name, read)
        return reads

    def test_supergradient_never_forms_vtda(self):
        sys = mismatched_instance(12, 5, 0.4, 71)
        op = expectation_operator(sys)
        reads = self.recorded_reads(op)
        supergradient_lambda(op, np.full(12, 1 / 12))
        assert reads == ["w"]

    def test_subgradient_never_forms_w(self):
        sys = mismatched_instance(12, 5, 0.4, 72)
        op = expectation_operator(sys)
        reads = self.recorded_reads(op)
        subgradient_norm(op, np.full(12, 1 / 12))
        assert reads == ["vtda"]


class TestDiagnosedValue:
    """``compute_diagnostics`` at ``best_p`` reads the value the optimizer reached."""

    @pytest.mark.parametrize(
        "kind, params",
        [("consistent", {}), ("inconsistent", {}), ("probopt", {"m": 150}),
         ("underdetermined", {})],
        ids=["consistent", "inconsistent", "probopt", "underdetermined"],
    )
    @pytest.mark.parametrize("objective", list(Objective), ids=lambda o: o.value)
    def test_equals_best_objective_bit_for_bit(self, kind, params, objective):
        sys = problems.build_instance(kind, 1, **params)
        cfg = ProbOptConfig(objective=objective, iterations=30)
        res = optimize_probabilities(sys, StepRule.OBLIQUE_EXACT, cfg)
        diag = compute_diagnostics(sys, res.best_p)
        if objective is Objective.MAX_LAMBDA_MIN:
            assert diag.lam == res.best_objective
        else:
            assert diag.norm_expectation == res.best_objective


class TestOptimize:
    def test_matched_identity_stays_uniform(self):
        m = 4
        sys = make_system(np.eye(m), np.eye(m), np.zeros(m))
        cfg = ProbOptConfig(objective=Objective.MAX_LAMBDA_MIN, iterations=50)
        result = optimize_probabilities(sys, StepRule.OBLIQUE_EXACT, cfg)
        np.testing.assert_allclose(result.best_p, np.full(m, 0.25), atol=1e-9)
        assert result.best_objective == pytest.approx(0.25, abs=1e-9)

    def test_lambda_ascent_beats_uniform(self):
        sys = assemble_scaled_for_probopt(60, 20, 0.05, 62)
        uniform_lambda = lam_at(sys, np.full(60, 1 / 60))
        cfg = ProbOptConfig(objective=Objective.MAX_LAMBDA_MIN, iterations=300)
        result = optimize_probabilities(sys, StepRule.OBLIQUE_EXACT, cfg)
        assert result.best_objective >= uniform_lambda - 1e-12
        assert result.best_objective > uniform_lambda * 1.01

    def test_norm_descent_beats_uniform(self):
        sys = assemble_scaled_for_probopt(60, 20, 0.05, 63)
        uniform_norm = norm_at(sys, np.full(60, 1 / 60))
        cfg = ProbOptConfig(objective=Objective.MIN_SPECTRAL_NORM, iterations=300)
        result = optimize_probabilities(sys, StepRule.OBLIQUE_EXACT, cfg)
        assert result.best_objective <= uniform_norm + 1e-12
        assert result.best_objective < uniform_norm

    def test_best_so_far_monotone_in_budget(self):
        sys = assemble_scaled_for_probopt(40, 15, 0.05, 64)
        short = optimize_probabilities(
            sys, StepRule.OBLIQUE_EXACT,
            ProbOptConfig(objective=Objective.MAX_LAMBDA_MIN, iterations=50),
        )
        long = optimize_probabilities(
            sys, StepRule.OBLIQUE_EXACT,
            ProbOptConfig(objective=Objective.MAX_LAMBDA_MIN, iterations=500),
        )
        assert long.best_objective >= short.best_objective - 1e-12

    def test_iterates_stay_on_simplex(self):
        sys = assemble_scaled_for_probopt(30, 10, 0.05, 65)
        cfg = ProbOptConfig(objective=Objective.MIN_SPECTRAL_NORM, iterations=100)
        result = optimize_probabilities(sys, StepRule.OBLIQUE_EXACT, cfg)
        assert np.all(result.best_p >= 0)
        assert abs(result.best_p.sum() - 1.0) <= 1e-12

    def test_history_shape(self):
        sys = assemble_scaled_for_probopt(20, 8, 0.05, 66)
        cfg = ProbOptConfig(iterations=25)
        result = optimize_probabilities(sys, StepRule.OBLIQUE_EXACT, cfg)
        assert len(result.objective_evals) == 26  # initial point plus one per iteration

    @pytest.mark.parametrize(
        "objective, evaluate, better",
        [
            (Objective.MAX_LAMBDA_MIN, lambda_objective, np.argmax),
            (Objective.MIN_SPECTRAL_NORM, norm_objective, np.argmin),
        ],
    )
    def test_values_paired_with_iterates(self, objective, evaluate, better):
        # Values come with the gradients; a shift between values and
        # iterates would pair best_p with a neighbour's value.
        sys = assemble_scaled_for_probopt(20, 8, 0.05, 74)
        cfg = ProbOptConfig(objective=objective, iterations=25)
        result = optimize_probabilities(sys, StepRule.OBLIQUE_EXACT, cfg)
        assert 0 < better(result.objective_evals) < 25  # best is a middle iterate
        op = expectation_operator(sys)
        assert result.best_objective == evaluate(op, result.best_p)
        assert result.best_iteration == better(result.objective_evals)
        assert result.objective_evals[0] == evaluate(op, np.full(20, 1 / 20))

    def test_wide_rows_formed_once_per_call(self, monkeypatch):
        sys = assemble_underdetermined(20, 60, 0.3, 11)
        calls = {"numerical_rank": 0, "cholesky_coordinates": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(diagnostics, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(diagnostics, name, counted)
        for objective in Objective:
            cfg = ProbOptConfig(objective=objective, iterations=25)
            optimize_probabilities(sys, StepRule.OBLIQUE_EXACT, cfg)
        # One rank test of A V^T and one Cholesky factorization of V V^T per
        # call, none per iterate.
        assert calls == {"numerical_rank": 2, "cholesky_coordinates": 2}

    def test_one_operator_read_per_iterate(self, monkeypatch):
        reads = []
        for name in ("vtda", "w"):
            def read(op, p, _name=name, _original=getattr(ExpectationOperator, name)):
                reads.append(_name)
                return _original(op, p)

            monkeypatch.setattr(ExpectationOperator, name, read)
        sys = assemble_scaled_for_probopt(40, 15, 0.05, 65)
        for objective, name in (
            (Objective.MAX_LAMBDA_MIN, "w"), (Objective.MIN_SPECTRAL_NORM, "vtda")
        ):
            reads.clear()
            cfg = ProbOptConfig(objective=objective, iterations=25)
            optimize_probabilities(sys, StepRule.OBLIQUE_EXACT, cfg)
            # One matrix per iterate, the final one included, and never the
            # other objective's.
            assert reads == [name] * 26

    @pytest.mark.parametrize("objective", list(Objective), ids=lambda o: o.value)
    def test_zero_gradient_takes_no_step(self, objective):
        # With a zero column in A = V both gradients vanish at uniform p
        # (lambda = 0, norm = 1): the normalized step must not divide 0 / 0.
        a = np.random.default_rng(0).standard_normal((6, 3))
        a[:, 2] = 0.0
        sys = make_system(a, a, a @ np.ones(3))
        cfg = ProbOptConfig(objective=objective, iterations=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = optimize_probabilities(sys, StepRule.OBLIQUE_EXACT, cfg)
        np.testing.assert_array_equal(result.best_p, np.full(6, 1 / 6))
        assert np.all(np.isfinite(result.objective_evals))
        assert len(result.objective_evals) == 11

    def test_requires_two_rows(self):
        sys = make_system(np.ones((1, 2)), np.ones((1, 2)), np.zeros(1))
        with pytest.raises(InvalidInputError):
            optimize_probabilities(sys, StepRule.OBLIQUE_EXACT, ProbOptConfig())
