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
factors once per iterate.  The sign of the norm subgradient is fixed by that
singular pair, so the optimizer draws no random numbers; the inequality it
rests on is checked in the tests.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import expectation_operator
from .errors import InvalidInputError
from .linalg import as_vector, symmetric_eigensystem, top_singular_triplet
from .sampling import check_probability_vector
from .solver import StepRule, SystemPair

# Relative eigen/singular gap below which the extremal vector is flagged as a
# degenerate (tied) subdifferential point.
DEGENERACY_GAP_RTOL = 1e-10


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

    def __post_init__(self):
        if self.iterations < 1:
            raise InvalidInputError("iterations must be >= 1")
        if not 0 < self.base_step < math.inf:
            raise InvalidInputError(f"base_step = {self.base_step} must be finite and > 0")

    def step_at(self, k):
        if self.schedule is StepSchedule.CONSTANT:
            return self.base_step
        return self.base_step / math.sqrt(k + 1.0)


@dataclass
class ProbOptResult:
    best_p: np.ndarray
    best_objective: float
    objective_evals: np.ndarray  # one value per iterate, the initial one first
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


def subgradient_norm(sys: SystemPair, p, rule: StepRule = StepRule.OBLIQUE_EXACT):
    """Subgradient of p -> ||I - V^T D A|| at p, from its top singular pair.

    With M(p) = I - V^T D A, which is affine in p, and a top singular pair
    M(p) right = sigma left, the component for row i is
    -omega_i * <v_i, left> * <a_i, right>.  Its sign is fixed even when sigma
    is tied, because ||M(q)|| >= <left, M(q) right> for every q, with
    equality at q = p.  Returns (gradient, degenerate flag,
    ||I - V^T D A||); the flag marks a (near-)tied top singular value.
    """
    p = check_probability_vector(p)
    op = expectation_operator(sys, p, rule)
    sigma, left, right, second = top_singular_triplet(np.eye(sys.n) - op.vtda)
    degenerate = sys.n > 1 and (sigma - second) <= DEGENERACY_GAP_RTOL * max(sigma, 1e-30)
    return -op.pair.omega * (sys.v @ left) * (sys.a @ right), degenerate, sigma


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
    gradient = supergradient_lambda if maximizing else subgradient_norm
    evaluate = lambda_objective if maximizing else norm_objective

    p = np.full(sys.m, 1.0 / sys.m)
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
        g, degenerate, value = gradient(sys, p, rule)
        record(p, value)
        if degenerate:
            degenerate_iterations.append(k)
        step = cfg.step_at(k) * g
        p = project_simplex(p + step if maximizing else p - step)
    record(p, evaluate(sys, p, rule))

    return ProbOptResult(
        best_p=best_p,
        best_objective=best_value,
        objective_evals=np.array(values),
        best_iteration=best_iteration,
        degenerate_iterations=degenerate_iterations,
    )
