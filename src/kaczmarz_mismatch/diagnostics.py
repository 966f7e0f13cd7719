"""Convergence diagnostics for the mismatched-adjoint iteration.

All quantities derive from the scaling matrices D = diag(p_i * omega_i) and
S = diag(omega_i * ||v_i||^2) of the one-step expectation analysis:

  * contraction constant  lambda = lambda_min(V^T D A + A^T D V - A^T S D A),
    giving the per-step factor (1 - lambda) on the expected squared error;
  * asymptotic rate       rho(I - V^T D A) of the expected error;
  * norm of expectation   ||I - V^T D A||;
  * noise amplification   gamma = max_i |r_i| ||v_i|| / <a_i, v_i> and the
    expected fixed-point error ||(V^T D A)^{-1} V^T D r|| for noisy systems;
  * range-restricted variants conjugated by an orthonormal basis Z of
    rg V^T, which replace the plain quantities for underdetermined systems.

``expectation_operator`` is the single builder of V^T D A and W from
(system, p, rule); every quantity above, and both objectives of ``probopt``,
are read off its matrices.  It forms each matrix on first use with one GEMM,
W as sym(A^T D (2V - S A)), so a caller that reads one of them never pays
for the other.  The spectral norm is read off the top singular pair alone;
its identity ||M||^2 = rho(M^T M) is checked in the tests.

The three rate expressions coincide for V = A; under mismatch they are
generally different, and their empirical ordering is recorded but never
asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionError,
    InvalidInputError,
    NoGuaranteeError,
    RankDeficiencyError,
    SingularMatrixError,
)
from .linalg import (
    is_invertible,
    lu_solve,
    orthonormal_range_basis,
    spectral_radius,
    symmetric_eig_min,
    top_singular_triplet,
)
from .sampling import POSITIVITY_FLOOR, check_probability_vector
from .solver import StepRule, SystemPair, static_step_sizes

# Columns of the one-row CSV serialization, in order.
CSV_COLUMNS = (
    "lambda",
    "rho",
    "norm",
    "gamma",
    "fixed_point_error",
    "restricted",
    "positivity_ok",
)


@dataclass(frozen=True)
class ScalingPair:
    """Diagonals of the expectation scaling matrices, the row pairings and step sizes."""

    d: np.ndarray  # p_i * omega_i
    s: np.ndarray  # omega_i * ||v_i||^2
    pairing: np.ndarray  # <a_i, v_i>
    omega: np.ndarray  # static step size of row i


@dataclass
class RateDiagnostics:
    lam: float
    rho_asymptotic: float
    norm_expectation: float
    gamma: float | None = None
    fixed_point_error: float | None = None
    positivity_ok: bool = True
    restricted: bool = False

    @property
    def expected_improvement(self):
        """Per-step factor on the expected squared error."""
        return 1.0 - self.lam

    @property
    def guarantees_convergence(self):
        return self.lam > 0 and self.positivity_ok

    @property
    def ordering_observed(self):
        """Whether rho <= norm <= 1 - lambda held on this instance (reported only)."""
        return (
            self.rho_asymptotic <= self.norm_expectation + 1e-12
            and self.norm_expectation <= self.expected_improvement + 1e-12
        )

    def report_lines(self):
        lines = [
            f"lambda: {self.lam:.17g}",
            f"expected_improvement: {self.expected_improvement:.17g}",
            f"rho: {self.rho_asymptotic:.17g}",
            f"norm: {self.norm_expectation:.17g}",
            f"gamma: {'' if self.gamma is None else format(self.gamma, '.17g')}",
            "fixed_point_error: "
            + ("" if self.fixed_point_error is None else format(self.fixed_point_error, ".17g")),
            f"restricted: {str(self.restricted).lower()}",
            f"positivity_ok: {str(self.positivity_ok).lower()}",
            f"guarantees_convergence: {str(self.guarantees_convergence).lower()}",
            f"ordering_rho_le_norm_le_improvement: {str(self.ordering_observed).lower()}",
        ]
        return lines

    def csv_row(self):
        return (
            self.lam,
            self.rho_asymptotic,
            self.norm_expectation,
            self.gamma,
            self.fixed_point_error,
            self.restricted,
            self.positivity_ok,
        )


def _scaling(sys, p, rule):
    if p.shape != (sys.m,):
        raise DimensionError(f"p has shape {p.shape}, expected ({sys.m},)")
    omega = static_step_sizes(sys, rule)  # rejects the adaptive rule
    return ScalingPair(
        d=p * omega,
        s=omega * sys.row_norms_sq("v"),
        pairing=sys.pairing.copy(),
        omega=omega,
    )


def scaling(sys: SystemPair, p, rule: StepRule = StepRule.OBLIQUE_EXACT) -> ScalingPair:
    """Exact componentwise scaling diagonals for a static step rule."""
    return _scaling(sys, check_probability_vector(p), rule)


class ExpectationOperator:
    """The scaling pair of (system, p, rule) and its two expectation matrices.

    ``vtda`` (V^T D A) and ``w`` (W = V^T D A + A^T D V - A^T S D A) are
    each formed on first read, by one matrix product, and kept.
    """

    def __init__(self, sys: SystemPair, pair: ScalingPair):
        self.sys = sys
        self.pair = pair

    @cached_property
    def vtda(self) -> np.ndarray:
        return self.sys.v.T @ (self.pair.d[:, None] * self.sys.a)

    @cached_property
    def w(self) -> np.ndarray:
        # A^T D (2V - S A) has symmetric part W: its 2 A^T D V term
        # symmetrizes to V^T D A + A^T D V, and A^T S D A is symmetric.
        a, pair = self.sys.a, self.pair
        rows = 2.0 * self.sys.v
        rows -= pair.s[:, None] * a
        rows *= pair.d[:, None]
        g = a.T @ rows
        return 0.5 * (g + g.T)


def expectation_operator(
    sys: SystemPair, p, rule: StepRule = StepRule.OBLIQUE_EXACT
) -> ExpectationOperator:
    """The expectation operator of (system, p, rule): ``pair``, ``vtda``, ``w``.

    The one place where a row distribution becomes the expectation operator;
    every rate in this module and in ``probopt`` is read off its matrices.
    ``p`` must have one entry per row, but is not checked to lie on the
    simplex, so the objectives can also be evaluated just off it; callers
    taking user input validate it first.
    """
    return ExpectationOperator(sys, _scaling(sys, np.asarray(p, dtype=float), rule))


def contraction_lambda(sys: SystemPair, p, rule: StepRule = StepRule.OBLIQUE_EXACT) -> float:
    """Smallest eigenvalue of the symmetrized expectation-improvement matrix.

    Positive values certify linear decay of the expected squared error at
    rate (1 - lambda) per step.  Intended for the overdetermined analysis;
    use ``restricted_diagnostics`` for underdetermined systems.
    """
    p = check_probability_vector(p)
    lam, _ = symmetric_eig_min(expectation_operator(sys, p, rule).w)
    return lam


def asymptotic_rate(sys: SystemPair, p, rule: StepRule = StepRule.OBLIQUE_EXACT) -> float:
    """Spectral radius of I - V^T D A, the asymptotic rate of the expected error."""
    vtda = expectation_operator(sys, check_probability_vector(p), rule).vtda
    return spectral_radius(np.eye(sys.n) - vtda)


def expectation_norm(sys: SystemPair, p, rule: StepRule = StepRule.OBLIQUE_EXACT) -> float:
    """Spectral norm of I - V^T D A."""
    vtda = expectation_operator(sys, check_probability_vector(p), rule).vtda
    return top_singular_triplet(np.eye(sys.n) - vtda).sigma


def noise_gamma(sys: SystemPair) -> float:
    """Worst-row noise amplification max_i |r_i| ||v_i|| / <a_i, v_i>."""
    if sys.noise is None:
        raise InvalidInputError("gamma needs a stored noise vector")
    norms_v = np.linalg.norm(sys.v, axis=1)
    return float(np.max(np.abs(sys.noise) * norms_v / sys.pairing))


def inconsistent_bound(k, lam, gamma, e0_sq) -> float:
    """Expected squared-error bound (1 - lambda/2)^k * e0^2 + (2/lambda) gamma^2."""
    if lam <= 0:
        raise NoGuaranteeError(f"no convergence guarantee: lambda = {lam:.3e} <= 0")
    if lam > 1:
        raise InvalidInputError(f"lambda = {lam:.3e} exceeds 1")
    return (1.0 - lam / 2.0) ** k * e0_sq + (2.0 / lam) * gamma**2


def expected_fixed_point_error(
    sys: SystemPair, p, rule: StepRule = StepRule.OBLIQUE_EXACT
) -> float:
    """Norm of the expectation fixed point (V^T D A)^{-1} V^T D r."""
    if sys.noise is None:
        raise InvalidInputError("fixed-point error needs a stored noise vector")
    p = check_probability_vector(p)
    return _fixed_point_error(sys, expectation_operator(sys, p, rule))


def _fixed_point_error(sys, op) -> float:
    rhs = sys.v.T @ (op.pair.d * sys.noise)
    z = lu_solve(op.vtda, rhs)  # vtda is singular when m < n
    return float(np.linalg.norm(z))


def restricted_diagnostics(
    sys: SystemPair, p, rule: StepRule = StepRule.OBLIQUE_EXACT
) -> RateDiagnostics:
    """Rate quantities restricted to rg V^T for underdetermined systems.

    Requires m <= n, full row rank of A and V, and a nonsingular A V^T (so
    the system has exactly one solution in rg V^T).
    """
    if sys.m > sys.n:
        raise InvalidInputError(
            f"restricted analysis expects m <= n, got {sys.m} x {sys.n}"
        )
    z = None
    for name, mat in (("a", sys.a), ("v", sys.v)):
        basis = orthonormal_range_basis(mat.T)
        if basis.shape[1] < sys.m:
            raise RankDeficiencyError(
                f"matrix {name} does not have full row rank "
                f"(rank {basis.shape[1]} < {sys.m})"
            )
        z = basis  # after the loop: orthonormal basis of rg V^T
    if not is_invertible(sys.a @ sys.v.T):
        raise SingularMatrixError("A V^T is singular; no unique solution in rg V^T")

    p = check_probability_vector(p)
    op = expectation_operator(sys, p, rule)
    return _rate_diagnostics(p, z.T @ op.w @ z, z.T @ op.vtda @ z, restricted=True)


def _rate_diagnostics(p, w, vtda, restricted) -> RateDiagnostics:
    """lambda, rho and ||I - V^T D A|| from W and V^T D A, or their restrictions."""
    lam, _ = symmetric_eig_min(w)
    m_mat = np.eye(vtda.shape[0]) - vtda
    return RateDiagnostics(
        lam=lam,
        rho_asymptotic=spectral_radius(m_mat),
        norm_expectation=top_singular_triplet(m_mat).sigma,
        positivity_ok=bool(np.all(p >= POSITIVITY_FLOOR)),
        restricted=restricted,
    )


def compute_diagnostics(
    sys: SystemPair, p, rule: StepRule = StepRule.OBLIQUE_EXACT
) -> RateDiagnostics:
    """Assemble the full diagnostics record for a system and row distribution.

    The range-restricted analysis is used when m < n.  Noise quantities are
    filled in when the system carries a noise vector; the fixed-point error
    stays None when m < n, where V^T D A is singular.
    """
    p = check_probability_vector(p)
    op = None
    if sys.m < sys.n:
        diag = restricted_diagnostics(sys, p, rule)
    else:
        op = expectation_operator(sys, p, rule)
        diag = _rate_diagnostics(p, op.w, op.vtda, restricted=False)
    if sys.noise is not None:
        diag.gamma = noise_gamma(sys)
        if sys.m >= sys.n:  # for m < n, V^T D A (rank <= m) is singular
            if op is None:
                op = expectation_operator(sys, p, rule)
            try:
                diag.fixed_point_error = _fixed_point_error(sys, op)
            except (SingularMatrixError, InvalidInputError):
                diag.fixed_point_error = None
    return diag
