"""Simplex-constrained optimization of the row-selection probabilities.

Two objectives over the probability simplex: maximize the contraction
constant lambda_min(W(p)) (concave in p, projected supergradient ascent) or
minimize the spectral norm ||I - V^T D A|| (convex in p, projected
subgradient descent).  Both use the exact Euclidean simplex projection and a
best-iterate tracker, since subgradient methods are not monotone.

Both objectives and their gradients take their matrix from the single
builder ``diagnostics.expectation_operator``: the lambda side forms only W
and solves only for its two lowest eigenpairs (``symmetric_eigensystem``,
which also decides the tie flag), the norm side forms only V^T D A and
solves only for the top singular pair of I - V^T D A.  Each gradient also
returns the objective value from its own factorization, so the optimizer
factors once per iterate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import expectation_operator
from .errors import DegenerateSubdifferentialError, InvalidInputError
from .linalg import as_vector, symmetric_eigensystem, top_singular_triplet
from .sampling import check_probability_vector, replicate_rng
from .solver import StepRule, SystemPair

# Relative eigen/singular gap below which the extremal vector is flagged as a
# degenerate (tied) subdifferential point.
DEGENERACY_GAP_RTOL = 1e-10
# Slack allowed when checking the concavity/convexity first-order inequalities.
SUBGRADIENT_SLACK = 1e-8


class Objective(enum.Enum):
    MAX_LAMBDA_MIN = "lambda"
    MIN_SPECTRAL_NORM = "norm"


class StepSchedule(enum.Enum):
    CONSTANT = "const"
    SQRT_DECAY = "sqrt"


@dataclass
class ProbOptConfig:
    objective: Objective = Objective.MAX_LAMBDA_MIN
    iterations: int = 200
    schedule: StepSchedule = StepSchedule.SQRT_DECAY
    base_step: float = 1.0
    record_history: bool = True
    seed: int = 0  # drives the sign-validation probes only

    def __post_init__(self):
        if self.iterations < 1:
            raise InvalidInputError("iterations must be >= 1")
        if self.base_step <= 0:
            raise InvalidInputError("base_step must be > 0")

    def step_at(self, k):
        if self.schedule is StepSchedule.CONSTANT:
            return self.base_step
        return self.base_step / math.sqrt(k + 1.0)


@dataclass
class ProbOptResult:
    best_p: np.ndarray
    best_objective: float
    history: list[tuple[int, float]]
    objective_evals: np.ndarray
    best_iteration: int  # index of best_p in objective_evals
    degenerate_iterations: list[int] = field(default_factory=list)


def project_simplex(y) -> np.ndarray:
    """Exact Euclidean projection onto the probability simplex.

    Sort-and-threshold: with the entries sorted in decreasing order, find the
    largest k for which y_(k) exceeds the running threshold, subtract it, and
    clip at zero.  The result is renormalized by its exact sum so the simplex
    invariant holds to full precision for long vectors.
    """
    y = as_vector(y, "y")
    u = np.sort(y)[::-1]
    css = np.cumsum(u)
    thresholds = (css - 1.0) / np.arange(1, len(y) + 1)
    k = np.nonzero(u > thresholds)[0][-1]
    p = np.clip(y - thresholds[k], 0.0, None)
    return p / math.fsum(p.tolist())


def lambda_objective(sys: SystemPair, p, rule: StepRule = StepRule.OBLIQUE_EXACT) -> float:
    lam, _, _ = symmetric_eigensystem(
        expectation_operator(sys, p, rule).w, DEGENERACY_GAP_RTOL
    )
    return lam


def norm_objective(sys: SystemPair, p, rule: StepRule = StepRule.OBLIQUE_EXACT) -> float:
    vtda = expectation_operator(sys, p, rule).vtda
    return top_singular_triplet(np.eye(sys.n) - vtda).sigma


def supergradient_lambda(sys: SystemPair, p, rule: StepRule = StepRule.OBLIQUE_EXACT):
    """Supergradient of p -> lambda_min(W(p)) at p.

    With x a unit eigenvector for the smallest eigenvalue of W, the component
    for row i is omega_i * <2 v_i - s_i a_i, x> * <a_i, x>.  Returns
    (gradient, degenerate flag, lambda_min(W(p))); the flag marks a
    (near-)tied smallest eigenvalue, where any extremal eigenvector still
    yields a valid supergradient element.
    """
    p = check_probability_vector(p)
    op = expectation_operator(sys, p, rule)
    lam, x, degenerate = symmetric_eigensystem(op.w, DEGENERACY_GAP_RTOL)
    ax = sys.a @ x
    vx = sys.v @ x
    return op.pair.omega * (2.0 * vx - op.pair.s * ax) * ax, degenerate, lam


def _norm_subgradient_candidate(sys, p, rule):
    """Unsigned candidate from the top singular pair of I - V^T D A."""
    op = expectation_operator(sys, p, rule)
    sigma, left, right, second = top_singular_triplet(np.eye(sys.n) - op.vtda)
    degenerate = sys.n > 1 and (sigma - second) <= DEGENERACY_GAP_RTOL * max(sigma, 1e-30)
    candidate = -op.pair.omega * (sys.v @ left) * (sys.a @ right)
    return candidate, sigma, degenerate


def validate_subgradient_sign(
    sys: SystemPair,
    p,
    rule: StepRule = StepRule.OBLIQUE_EXACT,
    n_probes: int = 24,
    seed: int = 0,
):
    """Pick the sign that makes the candidate a genuine subgradient.

    The candidate built from the top singular pair is checked, with both
    signs, against the convexity underestimate f(q) >= f(p) + <g, q - p> on
    random simplex probes; the sign that satisfies it is returned.  Failure
    of both signs indicates a degenerate (tied) top singular value.
    """
    p = check_probability_vector(p)
    candidate, f_p, _ = _norm_subgradient_candidate(sys, p, rule)
    rng = replicate_rng(seed, 101)
    probes = rng.dirichlet(np.ones(sys.m), size=n_probes)
    gaps = np.array([norm_objective(sys, q, rule) - f_p for q in probes])
    inner = probes @ candidate - p @ candidate
    plus_ok = bool(np.all(gaps >= inner - SUBGRADIENT_SLACK))
    minus_ok = bool(np.all(gaps >= -inner - SUBGRADIENT_SLACK))
    if plus_ok:
        return 1.0
    if minus_ok:
        return -1.0
    raise DegenerateSubdifferentialError(
        "no sign of the singular-pair candidate satisfies the subgradient "
        "inequality; the top singular value appears to be tied"
    )


def subgradient_norm(
    sys: SystemPair,
    p,
    rule: StepRule = StepRule.OBLIQUE_EXACT,
    sign: float | None = None,
):
    """Validated subgradient of p -> ||I - V^T D A|| at p.

    ``sign`` may carry a previously validated orientation (it is fixed per
    instance); when omitted, the sign is validated on the spot.  Returns
    (gradient, degenerate flag, ||I - V^T D A||).
    """
    p = check_probability_vector(p)
    if sign is None:
        sign = validate_subgradient_sign(sys, p, rule)
    candidate, sigma, degenerate = _norm_subgradient_candidate(sys, p, rule)
    return sign * candidate, degenerate, sigma


def optimize_probabilities(
    sys: SystemPair,
    rule: StepRule = StepRule.OBLIQUE_EXACT,
    cfg: ProbOptConfig | None = None,
) -> ProbOptResult:
    """Projected super/subgradient iteration from the uniform distribution.

    Ascent for the lambda objective, descent for the norm objective, exact
    simplex projection after every step, best iterate kept (the raw iterate
    sequence is not monotone).  Each iterate's objective value comes with its
    gradient; only the final iterate is evaluated on its own.
    """
    if sys.m < 2:
        raise InvalidInputError("probability optimization needs at least 2 rows")
    cfg = cfg or ProbOptConfig()
    maximizing = cfg.objective is Objective.MAX_LAMBDA_MIN
    evaluate = lambda_objective if maximizing else norm_objective

    p = np.full(sys.m, 1.0 / sys.m)
    sign = None
    if not maximizing:
        sign = validate_subgradient_sign(sys, p, rule, seed=cfg.seed)

    values: list[float] = []
    best_p = best_value = None
    best_iteration = 0
    degenerate_iterations: list[int] = []

    def record(q, value):
        nonlocal best_p, best_value, best_iteration
        if best_value is None or (value > best_value if maximizing else value < best_value):
            best_p, best_value, best_iteration = q, value, len(values)
        values.append(value)

    for k in range(cfg.iterations):
        if maximizing:
            g, degenerate, value = supergradient_lambda(sys, p, rule)
        else:
            g, degenerate, value = subgradient_norm(sys, p, rule, sign=sign)
        record(p, value)
        if degenerate:
            degenerate_iterations.append(k)
        step = cfg.step_at(k) * g
        p = project_simplex(p + step if maximizing else p - step)
    record(p, evaluate(sys, p, rule))

    objective_evals = np.array(values)
    history = list(enumerate(values)) if cfg.record_history else []
    return ProbOptResult(
        best_p=best_p,
        best_objective=best_value,
        history=history,
        objective_evals=objective_evals,
        best_iteration=best_iteration,
        degenerate_iterations=degenerate_iterations,
    )
