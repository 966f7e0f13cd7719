"""Simplex-constrained optimization of the row-selection probabilities.

Two objectives over the probability simplex: maximize the contraction
constant lambda_min(W(p)) (concave in p, projected supergradient ascent) or
minimize the spectral norm ||I - V^T D A|| (convex in p, projected
subgradient descent).  Both use the exact Euclidean simplex projection and a
best-iterate tracker, since subgradient methods are not monotone.  The move
at iterate k has length ``STEP_LENGTH * ||u|| / sqrt(k + 1)``, u the uniform
distribution, whatever the gradient's scale: the "nonsummable diminishing
step length" of Boyd, Xiao & Mutapcic, *Subgradient Methods* (2003).

Both gradients take an ``ExpectationOperator`` from
``diagnostics.expectation_operator`` and a distribution p.  The operator is
on the rows ``diagnose`` analyses: (A, V) when m >= n and the coordinates
(A Z, V Z) of rg V^T when m < n.  The gradient formulas hold unchanged in
coordinates, because <Z^T a_i, y> = <a_i, Z y>.  ``optimize_probabilities``
builds one operator per call and reads it at each iterate, so the rows are
formed once, and an iterate holds them, one row block and a few n x n
matrices (see ``diagnostics``).  The lambda side forms only W and solves
only for its two lowest eigenpairs (``symmetric_eigensystem``, which also
decides the tie flag), the norm side forms only V^T D A and solves only for
the top singular pair of ``iteration_matrix``.  Each gradient also returns
the objective value from its own factorization, so the optimizer factors
once per iterate, the final one included.  Those are the calls
``compute_diagnostics`` makes, so ``diagnose`` reports bit for bit the
lambda and norm the optimizer reached.  The sign of the norm subgradient is
fixed by that singular pair, so the optimizer draws no random numbers; the
inequality it rests on is checked in the tests.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import ExpectationOperator, expectation_operator
from .errors import InvalidInputError
from .linalg import TIE_RTOL, as_vector, symmetric_eigensystem, top_singular_triplet
from .solver import StepRule, SystemPair

# Length of the first move in p-space, in units of ||u|| = 1 / sqrt(m).
STEP_LENGTH = 0.3


class Objective(enum.Enum):
    MAX_LAMBDA_MIN = "lambda"
    MIN_SPECTRAL_NORM = "norm"


@dataclass
class ProbOptConfig:
    objective: Objective = Objective.MAX_LAMBDA_MIN
    iterations: int = 200

    def __post_init__(self):
        if self.iterations < 1:
            raise InvalidInputError("iterations must be >= 1")


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


def supergradient_lambda(op: ExpectationOperator, p):
    """Supergradient of p -> lambda_min(W(p)) at ``p``.

    With x a unit eigenvector for the smallest eigenvalue of W, the component
    for row i is omega_i * <2 v_i - s_i a_i, x> * <a_i, x>.  Returns
    (gradient, degenerate flag, lambda_min(W(p))); the flag marks a
    (near-)tied smallest eigenvalue, where any extremal eigenvector still
    yields a valid supergradient element.
    """
    lam, x, degenerate = symmetric_eigensystem(op.w(p))
    ax = op.a @ x
    vx = op.v @ x
    return op.omega * (2.0 * vx - op.s * ax) * ax, degenerate, lam


def subgradient_norm(op: ExpectationOperator, p):
    """Subgradient of p -> ||I - V^T D A|| at ``p``.

    With M(p) = I - V^T D A, which is affine in p, and a top singular pair
    M(p) right = sigma left, the component for row i is
    -omega_i * <v_i, left> * <a_i, right>.  Its sign is fixed even when sigma
    is tied, because ||M(q)|| >= <left, M(q) right> for every q, with
    equality at q = p.  Returns (gradient, degenerate flag,
    ||I - V^T D A||); the flag marks a (near-)tied top singular value.
    """
    sigma, left, right, second = top_singular_triplet(op.iteration_matrix(op.vtda(p)))
    degenerate = len(left) > 1 and (sigma - second) <= TIE_RTOL * max(sigma, 1e-30)
    return -op.omega * (op.v @ left) * (op.a @ right), degenerate, sigma


def optimize_probabilities(
    sys: SystemPair,
    rule: StepRule = StepRule.OBLIQUE_EXACT,
    cfg: ProbOptConfig | None = None,
) -> ProbOptResult:
    """Projected super/subgradient iteration from the uniform distribution.

    Ascent for the lambda objective, descent for the norm objective.  The
    move at iterate k is ``STEP_LENGTH / (sqrt(k + 1) sqrt(m) ||g_k||) g_k``,
    followed by the exact simplex projection; a zero gradient moves nothing.
    The best iterate is kept (the raw iterate sequence is not monotone).
    Each iterate's objective value comes with its gradient, the final
    iterate's too.
    """
    if sys.m < 2:
        raise InvalidInputError("probability optimization needs at least 2 rows")
    cfg = cfg or ProbOptConfig()
    maximizing = cfg.objective is Objective.MAX_LAMBDA_MIN
    gradient = supergradient_lambda if maximizing else subgradient_norm

    op = expectation_operator(sys, rule)
    p = np.full(sys.m, 1.0 / sys.m)
    values: list[float] = []
    best_p = best_value = None
    best_iteration = 0
    degenerate_iterations: list[int] = []

    for k in range(cfg.iterations + 1):
        g, degenerate, value = gradient(op, p)
        if best_value is None or (value > best_value if maximizing else value < best_value):
            best_p, best_value, best_iteration = p, value, k
        values.append(value)
        if k == cfg.iterations:  # the final iterate takes no step
            break
        if degenerate:
            degenerate_iterations.append(k)
        size = math.sqrt(k + 1.0) * math.sqrt(sys.m) * np.linalg.norm(g)
        if size > 0:
            step = STEP_LENGTH / size * g
            p = project_simplex(p + step if maximizing else p - step)

    return ProbOptResult(
        best_p=best_p,
        best_objective=best_value,
        objective_evals=np.array(values),
        best_iteration=best_iteration,
        degenerate_iterations=degenerate_iterations,
    )
