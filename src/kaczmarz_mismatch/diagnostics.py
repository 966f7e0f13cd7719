"""Convergence diagnostics for the mismatched-adjoint iteration.

All quantities derive from the scaling matrices D = diag(p_i * omega_i) and
S = diag(omega_i * ||v_i||^2) of the one-step expectation analysis:

  * contraction constant  lambda = lambda_min(V^T D A + A^T D V - A^T S D A),
    giving the per-step factor (1 - lambda) on the expected squared error;
  * asymptotic rate       rho(I - V^T D A) of the expected error;
  * norm of expectation   ||I - V^T D A||;
  * noise amplification   gamma = max_i |r_i| ||v_i|| / <a_i, v_i> and the
    expected fixed-point error ||(V^T D A)^{-1} V^T D r|| for noisy systems;
  * range-restricted variants for underdetermined systems, which replace
    the plain quantities: the same operator on the m x m coordinates
    (A Z, V Z) of an orthonormal basis Z of rg V^T.

``analysis_rows`` is the one place that decides which rows the analysis
reads: the dense rows (A, V) when m >= n, the coordinates (A Z, V Z) when
m < n.  ``ExpectationOperator`` forms V^T D A and W from those rows and a
scaling pair, each on first use with one GEMM, W as sym(A^T D (2V - S A)),
so a caller that reads one of them never pays for the other; its
``iteration_matrix`` is the one place I - V^T D A is built.
``expectation_operator`` builds it for (system, p, rule); on the
coordinates its matrices are Z^T V^T D A Z and Z^T W Z, so the restricted
analysis forms no n x n matrix.  ``compute_diagnostics`` reads lambda, rho
and the norm off it and returns them with the noise quantities in one
``RateDiagnostics`` record.  Both objectives of ``probopt`` read the same
operator with the same ``linalg`` calls (``symmetric_eigensystem`` for
lambda, ``top_singular_triplet`` for the norm), so ``diagnose`` reports bit
for bit the values the optimizer reached.  The spectral norm is read off
the top singular pair alone; its identity ||M||^2 = rho(M^T M) is checked
in the tests.

The three rate expressions coincide for V = A; under mismatch they are
generally different, and their empirical ordering is recorded but never
asserted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    symmetric_eigensystem,
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
    """Diagonals of the expectation scaling matrices and the step sizes."""

    d: np.ndarray  # p_i * omega_i
    s: np.ndarray  # omega_i * ||v_i||^2
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
    return ScalingPair(d=p * omega, s=omega * sys.row_norms_sq("v"), omega=omega)


class _WBuffers:
    """Y = 2V - S A of one set of rows and steps, and the buffers W is built in.

    W = sym(G) with G = A^T (D Y): its 2 A^T D V term symmetrizes to
    V^T D A + A^T D V, and A^T S D A is symmetric.  Y depends on the rows
    and the step sizes only, so operators that differ in D alone can share
    it.  Y and the buffers are made on the first ``w_of``.
    """

    def __init__(self, a: np.ndarray, v: np.ndarray, s: np.ndarray):
        self.a, self.v, self.s = a, v, s
        self.y = None

    def w_of(self, d: np.ndarray) -> np.ndarray:
        """W for the diagonal ``d`` of D, written over the previous one."""
        if self.y is None:
            self.y = 2.0 * self.v
            self.y -= self.s[:, None] * self.a
            self.rows = np.empty_like(self.y)
            self.g = np.empty((self.a.shape[1], self.a.shape[1]))
            self.w = np.empty_like(self.g)
        np.multiply(self.y, d[:, None], out=self.rows)
        np.matmul(self.a.T, self.rows, out=self.g)
        np.add(self.g, self.g.T, out=self.w)
        self.w *= 0.5
        return self.w


class ExpectationOperator:
    """The two expectation matrices of rows ``a``, ``v`` under a scaling pair.

    ``vtda`` (V^T D A) and ``w`` (W = V^T D A + A^T D V - A^T S D A) are
    each formed on first read, by one matrix product, and kept.  ``a`` and
    ``v`` are the system's rows, or their coordinates in a basis of a
    subspace that holds every v_i.  ``with_probabilities`` gives the
    operator of another row distribution on the same rows and steps.
    """

    def __init__(self, a: np.ndarray, v: np.ndarray, pair: ScalingPair):
        self.a = a
        self.v = v
        self.pair = pair
        self._w_buffers: _WBuffers | None = None  # set by with_probabilities

    @cached_property
    def vtda(self) -> np.ndarray:
        return self.v.T @ (self.pair.d[:, None] * self.a)

    def iteration_matrix(self) -> np.ndarray:
        """I - V^T D A, the map from e_k to E[e_{k+1}]; a new matrix per call."""
        return np.eye(self.vtda.shape[0]) - self.vtda

    @cached_property
    def w(self) -> np.ndarray:
        buffers = self._w_buffers
        if buffers is None:  # a lone operator: only W outlives these buffers
            buffers = _WBuffers(self.a, self.v, self.pair.s)
        return buffers.w_of(self.pair.d)

    def with_probabilities(self, p: np.ndarray) -> ExpectationOperator:
        """The operator of distribution ``p`` on these rows and step sizes.

        Only D = diag(p_i omega_i) changes.  From the first call on, this
        operator and those made from it by this method (and from those)
        build ``w`` in one set of buffers, with Y = 2V - S A formed once, so
        each ``w`` read overwrites the one read before.  For a caller that
        moves from one distribution to the next, such as
        ``probopt.optimize_probabilities``.
        """
        if self._w_buffers is None:
            self._w_buffers = _WBuffers(self.a, self.v, self.pair.s)
        op = ExpectationOperator(self.a, self.v, replace(self.pair, d=p * self.pair.omega))
        op._w_buffers = self._w_buffers
        return op


def analysis_rows(sys: SystemPair) -> tuple[np.ndarray, np.ndarray]:
    """The rows the expectation analysis reads: ``sys.dense`` when m >= n.

    When m < n the rates are stated on rg V^T, so the rows are the m x m
    coordinates (A Z, V Z) in the orthonormal basis Z of rg V^T.  That
    requires full row rank of A and V and a nonsingular A V^T (so the
    system has exactly one solution in rg V^T).
    """
    if sys.m >= sys.n:
        return sys.dense
    a, v = sys.dense
    z = None
    for name, mat in (("a", a), ("v", v)):
        basis = orthonormal_range_basis(mat.T)
        if basis.shape[1] < sys.m:
            raise RankDeficiencyError(
                f"matrix {name} does not have full row rank "
                f"(rank {basis.shape[1]} < {sys.m})"
            )
        z = basis  # after the loop: orthonormal basis of rg V^T
    if not is_invertible(a @ v.T):
        raise SingularMatrixError("A V^T is singular; no unique solution in rg V^T")
    return a @ z, v @ z


def expectation_operator(
    sys: SystemPair, p, rule: StepRule = StepRule.OBLIQUE_EXACT
) -> ExpectationOperator:
    """The expectation operator of (system, p, rule) on ``analysis_rows``.

    The one place where a row distribution becomes the expectation operator
    (``probopt.optimize_probabilities`` then replaces only D per iterate);
    every rate in this module and in ``probopt`` is read off its matrices,
    which are m x m when m < n.  ``p`` must have one entry per row, but is
    not checked to lie on the simplex, so the objectives can also be
    evaluated just off it; callers taking user input validate it first.
    """
    # The rank checks of the rows come before the checks on p and the rule.
    rows = analysis_rows(sys)
    return ExpectationOperator(*rows, _scaling(sys, np.asarray(p, dtype=float), rule))


def noise_gamma(sys: SystemPair) -> float:
    """Worst-row noise amplification max_i |r_i| ||v_i|| / <a_i, v_i>."""
    if sys.noise is None:
        raise InvalidInputError("gamma needs a stored noise vector")
    norms_v = np.sqrt(sys.row_norms_sq("v"))
    return float(np.max(np.abs(sys.noise) * norms_v / sys.pairing))


def inconsistent_bound(k, lam, gamma, e0_sq) -> float:
    """Expected squared-error bound (1 - lambda/2)^k * e0^2 + (2/lambda) gamma^2."""
    if lam <= 0:
        raise NoGuaranteeError(f"no convergence guarantee: lambda = {lam:.3e} <= 0")
    if lam > 1:
        raise InvalidInputError(f"lambda = {lam:.3e} exceeds 1")
    return (1.0 - lam / 2.0) ** k * e0_sq + (2.0 / lam) * gamma**2


def _fixed_point_error(sys, op) -> float:
    rhs = sys.v.T @ (op.pair.d * sys.noise)
    z = lu_solve(op.vtda, rhs)  # singular when p is non-zero on fewer than n rows
    return float(np.linalg.norm(z))


def compute_diagnostics(
    sys: SystemPair, p, rule: StepRule = StepRule.OBLIQUE_EXACT
) -> RateDiagnostics:
    """Assemble the full diagnostics record for a system and row distribution.

    The rates are range-restricted when m < n (see ``analysis_rows``).  Noise
    quantities are filled in when the system carries a noise vector; the
    fixed-point error stays None when m < n, where V^T D A (rank <= m) is
    singular.
    """
    p = check_probability_vector(p)
    op = expectation_operator(sys, p, rule)
    lam, _, _ = symmetric_eigensystem(op.w)
    m_mat = op.iteration_matrix()
    diag = RateDiagnostics(
        lam=lam,
        rho_asymptotic=spectral_radius(m_mat),
        norm_expectation=top_singular_triplet(m_mat).sigma,
        positivity_ok=bool(np.all(p >= POSITIVITY_FLOOR)),
        restricted=sys.m < sys.n,
    )
    del m_mat  # not kept alive through the fixed-point LU
    if sys.noise is not None:
        diag.gamma = noise_gamma(sys)
        if sys.m >= sys.n:
            try:
                diag.fixed_point_error = _fixed_point_error(sys, op)
            except (SingularMatrixError, InvalidInputError):
                diag.fixed_point_error = None
    return diag
