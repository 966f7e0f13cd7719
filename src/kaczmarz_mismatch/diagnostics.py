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

``analysis_rows`` is the one place that tests a system's shape: the dense
rows (A, V) when m >= n, the coordinates (A Z, V Z) when m < n, read off
the m x m products A V^T and V V^T after the rank test of A V^T.  Every
quantity below, ``restricted`` included, is read off the rows it returns.
``expectation_operator`` builds one ``ExpectationOperator`` per system and
step rule from those rows and the static step sizes.  Only
D = diag(p_i omega_i) depends on the row distribution, so its matrices take
p as an argument: ``vtda(p)`` forms V^T D A and ``w(p)`` forms W as
sym(A^T D (2V - S A)), each a new matrix, so a caller that reads one of them
never pays for the other.  Each is summed over row blocks of at most
``BLOCK_BYTES``, the block of D A or D (2V - S A) formed as it is read, so
the analysis holds the pair, one block and a few n x n matrices: no m x n
copy of the rows.  Rows that fit one block give the single matrix product,
bit for bit.  Its ``iteration_matrix`` is the one place I - V^T D A is
built.  On the coordinates the matrices are Z^T V^T D A Z and Z^T W Z, so
the restricted analysis forms no m x n or n x n matrix.
``compute_diagnostics`` reads lambda off W, forms V^T D A once, reads the
fixed-point error off it, then rho and the norm off I - V^T D A with
V^T D A released, and returns them with the noise quantities in one
``RateDiagnostics`` record.  Both objectives of ``probopt`` read the same
operator with the same ``linalg`` calls (``symmetric_eigensystem`` for
lambda, ``top_singular_triplet`` for the norm), so ``diagnose`` reports bit
for bit the values the optimizer reached.  The spectral norm is read off
the top singular pair alone; its identity ||M||^2 = rho(M^T M) is checked
in the tests.

The three rate expressions coincide for V = A; under mismatch the one-step
identity orders them as rho <= ||I - V^T D A|| <= sqrt(1 - lambda), a chain
``RateDiagnostics.ordering_observed`` checks on each instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.linalg.blas import dgemm

from .errors import (
    DimensionError,
    InvalidInputError,
    NoGuaranteeError,
    RankDeficiencyError,
    SingularMatrixError,
)
from .linalg import (
    cholesky_coordinates,
    lu_solve,
    numerical_rank,
    spectral_radius,
    symmetric_eigensystem,
    top_singular_triplet,
)
from .sampling import check_probability_vector
from .solver import StepRule, SystemPair, static_step_sizes

# Bytes of one row block of the m x n products ``ExpectationOperator`` sums:
# the analysis holds its rows, one block and a few n x n matrices.
BLOCK_BYTES = 1 << 20
# Columns of the one-row CSV serialization, in order.
CSV_COLUMNS = (
    "lambda",
    "rho",
    "norm",
    "gamma",
    "fixed_point_error",
    "restricted",
)


@dataclass
class RateDiagnostics:
    lam: float
    rho_asymptotic: float
    norm_expectation: float
    gamma: float | None = None
    fixed_point_error: float | None = None
    restricted: bool = False

    @property
    def expected_improvement(self):
        """Per-step factor on the expected squared error."""
        return 1.0 - self.lam

    @property
    def guarantees_convergence(self):
        """lambda > 0: the one-step bound holds for any p on the simplex."""
        return self.lam > 0

    @property
    def ordering_observed(self):
        """Whether rho <= norm <= sqrt(max(1 - lambda, 0)) held on this instance.

        The one-step identity E[M_i^T M_i] = I - W gives M^T M <= I - W by
        Jensen, so norm^2 <= 1 - lambda, compared squared: a square root
        would magnify the rounding of lambda near 1.  Each x <= y is allowed
        1e-12 max(1, y), the identity in M = I - V^T D A setting the scale.
        """
        norm, improvement = self.norm_expectation, self.expected_improvement
        return (
            self.rho_asymptotic <= norm + 1e-12 * max(1.0, norm)
            and norm * norm <= improvement + 1e-12 * max(1.0, improvement)
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
            f"guarantees_convergence: {str(self.guarantees_convergence).lower()}",
            f"ordering_rho_le_norm_le_sqrt_improvement: {str(self.ordering_observed).lower()}",
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
        )


class ExpectationOperator:
    """The expectation matrices of rows ``a``, ``v`` and steps ``omega``, as functions of p.

    Only D = diag(p_i omega_i) depends on the row distribution p, so one
    operator serves every p: ``vtda(p)`` (V^T D A) and ``w(p)``
    (W = V^T D A + A^T D V - A^T S D A) each return a new matrix for the p
    passed.  ``s`` is the diagonal of S, omega_i ||v_i||^2.  ``a`` and ``v``
    are the system's rows, or their coordinates in a basis of a subspace
    that holds every v_i.

    Both matrices are sums over row blocks of at most ``BLOCK_BYTES``
    (``_row_blocks``), each block's scaled rows formed in one reused buffer,
    so a call holds one block and two n x n matrices besides the rows.  When
    the rows fit one block, the sum is the single matrix product of the
    unblocked formula, bit for bit.
    """

    def __init__(self, a: np.ndarray, v: np.ndarray, omega: np.ndarray, s: np.ndarray):
        self.a, self.v, self.omega, self.s = a, v, omega, s

    def _d(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if p.shape != (self.a.shape[0],):
            raise DimensionError(f"p has shape {p.shape}, expected ({self.a.shape[0]},)")
        return p * self.omega

    def _sum_blocks(self, left, scaled_rows) -> np.ndarray:
        """The sum over row blocks of left[block]^T scaled_rows(block, buffer).

        ``scaled_rows`` fills the buffer's leading rows, one per row of the
        block, and returns them.  The first block's product is numpy's, as
        in the unblocked formula; each later block is added into it in place
        by one ``dgemm``, which reads the C-ordered arrays as their Fortran
        transposes: total^T += rows^T left[block].
        """
        blocks = _row_blocks(*self.a.shape)
        buffer = np.empty((blocks[0].stop, self.a.shape[1]))
        total = left[blocks[0]].T @ scaled_rows(blocks[0], buffer)
        for block in blocks[1:]:
            rows = scaled_rows(block, buffer)
            total = dgemm(
                1.0, rows.T, left[block].T, beta=1.0, c=total.T, trans_b=1, overwrite_c=1
            ).T
        return total

    def vtda(self, p) -> np.ndarray:
        """V^T D A, summed over row blocks of D A."""
        d = self._d(p)[:, None]

        def scaled_rows(block, buffer):
            return np.multiply(d[block], self.a[block], out=buffer[: block.stop - block.start])

        return self._sum_blocks(self.v, scaled_rows)

    def w(self, p) -> np.ndarray:
        """W = sym(G) with G = A^T (D (2V - S A)), summed over row blocks.

        Its 2 A^T D V term symmetrizes to V^T D A + A^T D V, and A^T S D A
        is symmetric; W is symmetric bit for bit.  A block of D (2V - S A) is
        formed as (V - (S/2) A)(2D): halving and doubling are exact, so each
        entry is (2 v_ij - s_i a_ij) d_i to the last bit.
        """
        d2 = 2.0 * self._d(p)[:, None]
        half_s = 0.5 * self.s[:, None]

        def scaled_rows(block, buffer):
            rows = buffer[: block.stop - block.start]
            np.multiply(half_s[block], self.a[block], out=rows)
            np.subtract(self.v[block], rows, out=rows)
            rows *= d2[block]
            return rows

        g = self._sum_blocks(self.a, scaled_rows)
        w = g + g.T
        w *= 0.5
        return w

    @staticmethod
    def iteration_matrix(vtda: np.ndarray) -> np.ndarray:
        """I - V^T D A, the map from e_k to E[e_{k+1}]; a new matrix per call.

        Formed without an identity matrix, but equal bit for bit to
        ``np.eye(n) - vtda``: 0.0 - x off the diagonal, which keeps the sign
        of a zero, and 1.0 - x on it.
        """
        m_mat = np.subtract(0.0, vtda)
        np.fill_diagonal(m_mat, 1.0 - np.diagonal(vtda))
        return m_mat


def _row_blocks(m: int, n: int) -> list[slice]:
    """Row slices of an m x n float64 matrix, each at most ``BLOCK_BYTES``.

    The blocks are as even as their count allows (at least one row each), so
    that no short last block costs a small matrix product of its own.
    """
    most = max(1, BLOCK_BYTES // (8 * n))
    count = -(-m // most)
    rows = -(-m // count)
    return [slice(lo, min(lo + rows, m)) for lo in range(0, m, rows)]


def _dense(m) -> np.ndarray:
    return m.toarray() if scipy.sparse.issparse(m) else m


def analysis_rows(sys: SystemPair) -> tuple[np.ndarray, np.ndarray]:
    """The rows the expectation analysis reads: (A, V) as dense arrays when m >= n.

    When m < n the rates are stated on rg V^T, so the rows are the m x m
    coordinates (A Z, V Z) in an orthonormal basis Z of rg V^T, read off the
    products A V^T and V V^T (sparse on CSR) after the one rank test of
    A V^T by pivoted QR (rank m: one solution in rg V^T, full row rank of A
    and V): no m x n or n x n matrix is formed.
    """
    a, v = sys.a, sys.v
    if sys.m >= sys.n:
        dense_a = _dense(a)
        return dense_a, dense_a if v is a else _dense(v)
    av = _dense(a @ v.T)
    rank = numerical_rank(av)
    if rank < sys.m:
        raise RankDeficiencyError(
            f"A V^T has rank {rank} < {sys.m}: no unique solution in rg V^T"
        )
    return cholesky_coordinates(_dense(v @ v.T), av)


def expectation_operator(
    sys: SystemPair, rule: StepRule = StepRule.OBLIQUE_EXACT
) -> ExpectationOperator:
    """The expectation operator of (system, rule) on ``analysis_rows``.

    The one place where a system and a step rule become the expectation
    operator; every rate in this module and in ``probopt`` is read off its
    matrices, which are m x m when m < n.  The p passed to them must have
    one entry per row, but is not checked to lie on the simplex, so the
    objectives can also be evaluated just off it; callers taking user input
    validate it first.
    """
    rows = analysis_rows(sys)
    omega = static_step_sizes(sys, rule)
    return ExpectationOperator(*rows, omega, omega * sys.norms_sq_v)


def noise_gamma(sys: SystemPair) -> float:
    """Worst-row noise amplification max_i |r_i| ||v_i|| / <a_i, v_i>."""
    if sys.noise is None:
        raise InvalidInputError("gamma needs a stored noise vector")
    return float(np.max(np.abs(sys.noise) * np.sqrt(sys.norms_sq_v) / sys.pairing))


def inconsistent_bound(k, lam, gamma, e0_sq) -> float:
    """Expected squared-error bound (1 - lambda/2)^k * e0^2 + (2/lambda) gamma^2.

    lambda <= 1 in exact arithmetic; a computed lambda up to 1e-12 above 1
    (n = 1 with V = A gives 1.0000000000000002) counts as 1.
    """
    if lam <= 0:
        raise NoGuaranteeError(f"no convergence guarantee: lambda = {lam:.3e} <= 0")
    if lam > 1 + 1e-12:
        raise InvalidInputError(f"lambda = {lam:.17g} exceeds 1")
    lam = min(lam, 1.0)
    return (1.0 - lam / 2.0) ** k * e0_sq + (2.0 / lam) * gamma**2


def compute_diagnostics(
    sys: SystemPair, p, rule: StepRule = StepRule.OBLIQUE_EXACT
) -> RateDiagnostics:
    """Assemble the full diagnostics record for a system and row distribution.

    Every quantity is read on the rows of ``analysis_rows``.  Noise
    quantities are filled in when the system carries a noise vector: the
    fixed-point error ||x_bar - x*|| solves V^T D A z = V^T D r on those rows
    (when m < n, x_bar and x* are the points of rg V^T with A x = b + r and
    A x = b; every run from rg V^T reaches x_bar), and stays None where
    V^T D A is singular.
    """
    p = check_probability_vector(p)
    op = expectation_operator(sys, rule)
    lam, _, _ = symmetric_eigensystem(op.w(p))
    vtda = op.vtda(p)
    gamma = fixed_point_error = None
    if sys.noise is not None:
        gamma = noise_gamma(sys)
        try:  # V^T D A is singular when p is non-zero on too few rows
            z = lu_solve(vtda, op.v.T @ (p * op.omega * sys.noise))
            fixed_point_error = float(np.linalg.norm(z))
        except (SingularMatrixError, InvalidInputError):
            pass
    m_mat = op.iteration_matrix(vtda)
    del vtda  # not kept alive through the factorizations of I - V^T D A
    return RateDiagnostics(
        lam=lam,
        rho_asymptotic=spectral_radius(m_mat),
        norm_expectation=top_singular_triplet(m_mat).sigma,
        gamma=gamma,
        fixed_point_error=fixed_point_error,
        restricted=op.a.shape[1] < sys.n,
    )
