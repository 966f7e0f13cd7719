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
are read off its matrices.

The three rate expressions coincide for V = A; under mismatch they are
generally different, and their empirical ordering is recorded but never
asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidInputError,
    NoGuaranteeError,
    NumericError,
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


def _checked_p(sys, p):
    p = check_probability_vector(p)
    if len(p) != sys.m:
        raise InvalidInputError(f"p has length {len(p)}, expected {sys.m}")
    return p


def _scaling(sys, p, rule):
    omega = static_step_sizes(sys, rule)  # rejects the adaptive rule
    return ScalingPair(
        d=p * omega,
        s=omega * sys.row_norms_sq("v"),
        pairing=sys.pairing.copy(),
        omega=omega,
    )


def scaling(sys: SystemPair, p, rule: StepRule = StepRule.OBLIQUE_EXACT) -> ScalingPair:
    """Exact componentwise scaling diagonals for a static step rule."""
    return _scaling(sys, _checked_p(sys, p), rule)


def expectation_operator(sys: SystemPair, p, rule: StepRule = StepRule.OBLIQUE_EXACT):
    """(pair, V^T D A, W) with W = V^T D A + A^T D V - A^T S D A.

    The one place where a row distribution becomes the expectation operator;
    every rate in this module and in ``probopt`` is read off these matrices.
    ``p`` is used as given, not validated, so the objectives can also be
    evaluated just off the simplex; callers taking user input validate first.
    """
    pair = _scaling(sys, np.asarray(p, dtype=float), rule)
    vtda = sys.v.T @ (pair.d[:, None] * sys.a)
    w = vtda + vtda.T - sys.a.T @ ((pair.s * pair.d)[:, None] * sys.a)
    return pair, vtda, w


def contraction_lambda(sys: SystemPair, p, rule: StepRule = StepRule.OBLIQUE_EXACT) -> float:
    """Smallest eigenvalue of the symmetrized expectation-improvement matrix.

    Positive values certify linear decay of the expected squared error at
    rate (1 - lambda) per step.  Intended for the overdetermined analysis;
    use ``restricted_diagnostics`` for underdetermined systems.
    """
    _, _, w = expectation_operator(sys, _checked_p(sys, p), rule)
    lam, _ = symmetric_eig_min(w)
    return lam


def asymptotic_rate(sys: SystemPair, p, rule: StepRule = StepRule.OBLIQUE_EXACT) -> float:
    """Spectral radius of I - V^T D A, the asymptotic rate of the expected error."""
    _, vtda, _ = expectation_operator(sys, _checked_p(sys, p), rule)
    return spectral_radius(np.eye(sys.n) - vtda)


def _checked_norm(m) -> float:
    """Spectral norm of M, cross-checked against ||M||^2 = rho(M^T M)."""
    sigma = top_singular_triplet(m).sigma
    radius = spectral_radius(m.T @ m)
    if abs(sigma**2 - radius) > 1e-6 * max(radius, 1e-30):
        raise NumericError(
            f"spectral-norm identity violated: sigma^2 = {sigma**2:.12e} "
            f"vs rho(M^T M) = {radius:.12e}"
        )
    return sigma


def expectation_norm(sys: SystemPair, p, rule: StepRule = StepRule.OBLIQUE_EXACT) -> float:
    """Spectral norm of I - V^T D A.

    Cross-checked against the symmetric-product identity
    ||I - V^T D A||^2 = rho(I - V^T D A - A^T D V + A^T D V V^T D A)
    before returning.
    """
    _, vtda, _ = expectation_operator(sys, _checked_p(sys, p), rule)
    return _checked_norm(np.eye(sys.n) - vtda)


def noise_gamma(sys: SystemPair, p=None) -> float:
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
    pair, vtda, _ = expectation_operator(sys, _checked_p(sys, p), rule)
    return _fixed_point_error(sys, pair, vtda)


def _fixed_point_error(sys, pair, vtda) -> float:
    rhs = sys.v.T @ (pair.d * sys.noise)
    z = lu_solve(vtda, rhs)  # vtda is singular when m < n
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

    p = _checked_p(sys, p)
    _, vtda, w = expectation_operator(sys, p, rule)
    lam, _ = symmetric_eig_min(z.T @ w @ z)
    m_restricted = np.eye(z.shape[1]) - z.T @ vtda @ z
    return RateDiagnostics(
        lam=lam,
        rho_asymptotic=spectral_radius(m_restricted),
        norm_expectation=top_singular_triplet(m_restricted).sigma,
        positivity_ok=bool(np.all(p >= POSITIVITY_FLOOR)),
        restricted=True,
    )


def compute_diagnostics(
    sys: SystemPair,
    p,
    rule: StepRule = StepRule.OBLIQUE_EXACT,
    restricted: bool | None = None,
) -> RateDiagnostics:
    """Assemble the full diagnostics record for a system and row distribution.

    ``restricted=None`` selects the range-restricted analysis automatically
    when m < n.  Noise quantities are filled in when the system carries a
    noise vector; the fixed-point error stays None when m < n, where
    V^T D A is singular.
    """
    p = _checked_p(sys, p)
    if restricted is None:
        restricted = sys.m < sys.n
    if restricted:
        diag = restricted_diagnostics(sys, p, rule)
        operator = None
    else:
        operator = expectation_operator(sys, p, rule)
        _, vtda, w = operator
        m_mat = np.eye(sys.n) - vtda
        lam, _ = symmetric_eig_min(w)
        diag = RateDiagnostics(
            lam=lam,
            rho_asymptotic=spectral_radius(m_mat),
            norm_expectation=_checked_norm(m_mat),
            positivity_ok=bool(np.all(p >= POSITIVITY_FLOOR)),
            restricted=False,
        )
    if sys.noise is not None:
        diag.gamma = noise_gamma(sys)
        if sys.m >= sys.n:  # for m < n, V^T D A (rank <= m) is singular
            pair, vtda, _ = operator or expectation_operator(sys, p, rule)
            try:
                diag.fixed_point_error = _fixed_point_error(sys, pair, vtda)
            except (SingularMatrixError, InvalidInputError):
                diag.fixed_point_error = None
    return diag
