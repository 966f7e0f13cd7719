"""Row-action solver with a mismatched adjoint.

One step picks a random row i and moves the iterate along the surrogate
direction v_i instead of a_i:

    x <- x - omega_i * (<a_i, x> - beta_i) * v_i

With the default step size omega_i = 1/<a_i, v_i> the update is the oblique
projection onto the hyperplane {x : <a_i, x> = beta_i}; with V = A it reduces
to the classical randomized Kaczmarz projection.  beta is the right-hand side
in use: b, or b plus the stored noise vector for inconsistent systems.

``_sweep`` is the one implementation of the update: ``rkma_step`` calls it
directly, and ``run`` and ``run_replicates`` through ``_run``, the logged
iteration on one random stream.  A static-rule step is one BLAS ``ddot`` and
one ``daxpy`` on ``x`` in place.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import daxpy, ddot

from .errors import DimensionError, InvalidInputError, NumericError
from .linalg import as_matrix, as_vector
from .sampling import DiscreteSampler, check_probability_vector, replicate_rng

# Rows whose pairing <a_i, v_i> falls below this relative threshold make the
# oblique step division meaningless and are rejected at construction.
PAIRING_RTOL = 1e-12
# Consistency required of (A, b, truth) when no noise vector is stored.
CONSISTENCY_RTOL = 1e-8
# Residual magnitude below which the adaptive step is defined as a no-op.
ADAPTIVE_RESIDUAL_FLOOR = 1e-14
# Rows drawn per ``DiscreteSampler.draw_array`` call in ``run``.  The size is
# fixed, so the row sequence depends on the seed alone, not on the iteration
# count or the logging stride.
ROW_BLOCK = 1024


class StepRule(enum.Enum):
    """Step-size choices for the row update."""

    OBLIQUE_EXACT = "oblique"          # omega = 1/<a_i, v_i>, lands on the a-hyperplane
    INVERSE_ROW_NORM_A = "rownorm-a"   # omega = 1/||a_i||^2
    INVERSE_ROW_NORM_V = "rownorm-v"   # omega = 1/||v_i||^2
    ADAPTIVE_V_HYPERPLANE = "adaptive-v"  # iterate-dependent; lands on the v-hyperplane

    @property
    def is_static(self):
        return self is not StepRule.ADAPTIVE_V_HYPERPLANE


@dataclass(frozen=True)
class SystemPair:
    """A linear system together with its surrogate adjoint rows.

    ``a`` and ``v`` are (m, n); ``b`` is the consistent right-hand side.  When
    ``noise`` is present the solver actually sees b + noise.  ``truth`` is the
    known solution used for error tracking, if any.

    Use ``make_system`` to construct: it enforces the row pairing sign
    convention and the consistency invariant.
    """

    a: np.ndarray
    v: np.ndarray
    b: np.ndarray
    noise: np.ndarray | None = None
    truth: np.ndarray | None = None
    pairing: np.ndarray = field(default=None, repr=False)  # <a_i, v_i> per row

    @property
    def m(self):
        return self.a.shape[0]

    @property
    def n(self):
        return self.a.shape[1]

    @property
    def rhs(self):
        """The right-hand side the iteration sees (b, or b + noise)."""
        if self.noise is None:
            return self.b
        return self.b + self.noise

    def row_norms_sq(self, which="a"):
        rows = self.a if which == "a" else self.v
        return np.einsum("ij,ij->i", rows, rows)


def make_system(a, v, b, noise=None, truth=None) -> SystemPair:
    """Validate and assemble a ``SystemPair``.

    Rows of ``v`` with negative pairing <a_i, v_i> have their sign flipped;
    rows with |<a_i, v_i>| <= 1e-12 * ||a_i|| * ||v_i|| are rejected.
    """
    a = as_matrix(a, "a")
    v = as_matrix(v, "v")
    b = as_vector(b, "b")
    if a.shape != v.shape:
        raise DimensionError(f"a and v must share shape: {a.shape} vs {v.shape}")
    m, n = a.shape
    if b.shape[0] != m:
        raise DimensionError(f"b has length {b.shape[0]}, expected {m}")
    pairing = np.einsum("ij,ij->i", a, v)
    flip = pairing < 0
    if np.any(flip):
        v = v.copy()
        v[flip] *= -1.0
        pairing = np.abs(pairing)
    norms_a = np.sqrt(np.einsum("ij,ij->i", a, a))
    norms_v = np.sqrt(np.einsum("ij,ij->i", v, v))
    bad = pairing <= PAIRING_RTOL * norms_a * norms_v
    if np.any(bad):
        rows = np.flatnonzero(bad).tolist()
        raise InvalidInputError(
            f"rows with near-orthogonal (a_i, v_i) pairing: {rows[:20]}"
            + ("..." if len(rows) > 20 else "")
        )
    if noise is not None:
        noise = as_vector(noise, "noise")
        if noise.shape[0] != m:
            raise DimensionError(f"noise has length {noise.shape[0]}, expected {m}")
    if truth is not None:
        truth = as_vector(truth, "truth")
        if truth.shape[0] != n:
            raise DimensionError(f"truth has length {truth.shape[0]}, expected {n}")
        if noise is None:
            residual = np.linalg.norm(a @ truth - b)
            if residual > CONSISTENCY_RTOL * max(np.linalg.norm(b), 1e-300):
                raise InvalidInputError(
                    f"truth does not solve the system: ||A truth - b|| = {residual:.3e}"
                )
    return SystemPair(a=a, v=v, b=b, noise=noise, truth=truth, pairing=pairing)


def static_step_sizes(sys: SystemPair, rule: StepRule) -> np.ndarray:
    """Per-row omega for the iterate-independent rules."""
    if not rule.is_static:
        raise InvalidInputError(
            "adaptive rule has no static step sizes (omega depends on the iterate)"
        )
    if rule is StepRule.OBLIQUE_EXACT:
        return 1.0 / sys.pairing
    if rule is StepRule.INVERSE_ROW_NORM_A:
        return 1.0 / sys.row_norms_sq("a")
    return 1.0 / sys.row_norms_sq("v")


@dataclass
class SolverConfig:
    rule: StepRule = StepRule.OBLIQUE_EXACT
    max_iterations: int = 1000
    log_stride: int = 1
    seed: int = 0
    residual_tolerance: float = 0.0  # relative to ||rhs||; 0 disables early stop
    start_coefficients: np.ndarray | None = None  # x0 = V^T c; None means x0 = 0
    keep_logged_iterates: bool = False  # snapshot x at each log point

    def __post_init__(self):
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be >= 1")
        if self.log_stride < 1:
            raise InvalidInputError("log_stride must be >= 1")
        if not self.residual_tolerance >= 0:
            raise InvalidInputError(
                f"residual_tolerance = {self.residual_tolerance} must be >= 0"
            )


@dataclass
class Trace:
    """Logged history of one solver run."""

    logged_k: list[int]
    error_norms: list[float]  # empty when truth is unknown
    residual_norms: list[float]
    final_x: np.ndarray
    rows_visited: np.ndarray  # visit count per row
    stopped_early: bool = False
    logged_x: list[np.ndarray] | None = None  # only with keep_logged_iterates


def initial_iterate(sys: SystemPair, cfg: SolverConfig) -> np.ndarray:
    if cfg.start_coefficients is not None:
        c = as_vector(cfg.start_coefficients, "start coefficients")
        if c.shape[0] != sys.m:
            raise DimensionError(
                f"start coefficients have length {c.shape[0]}, expected {sys.m}"
            )
        return sys.v.T @ c
    return np.zeros(sys.n)


def _sweep(x, a_rows, v_rows, omega, beta, rows):
    """Apply the row updates for ``rows``, in order, to ``x`` in place.

    Static rules (``omega`` holds the step sizes): x <- x - omega_i (<a_i, x> - beta_i) v_i.
    Adaptive rule (``omega`` is None): x <- x - (<v_i, x> - beta_i) / ||v_i||^2 v_i,
    skipped while |<a_i, x> - beta_i| <= ADAPTIVE_RESIDUAL_FLOOR.

    ``x`` must be a contiguous float64 vector: ``daxpy`` silently updates a
    copy of anything else.  ``omega`` is not folded into a scaled copy of V,
    which would cost a third m x n matrix for a few percent per step.
    """
    n = x.shape[0]  # passed positionally: daxpy parses keywords much more slowly
    if omega is None:
        for i in rows:
            beta_i = beta[i]
            if abs(ddot(a_rows[i], x) - beta_i) <= ADAPTIVE_RESIDUAL_FLOOR:
                continue
            v_i = v_rows[i]
            daxpy(v_i, x, n, (beta_i - ddot(v_i, x)) / ddot(v_i, v_i))
    else:
        for i in rows:
            daxpy(v_rows[i], x, n, omega[i] * (beta[i] - ddot(a_rows[i], x)))


def rkma_step(sys: SystemPair, x, i, rule: StepRule = StepRule.OBLIQUE_EXACT):
    """One row update; returns the new iterate (input x is not modified)."""
    x = as_vector(x, "x")
    if x.shape[0] != sys.n:
        raise DimensionError(f"x has length {x.shape[0]}, expected {sys.n}")
    if not 0 <= i < sys.m:
        raise InvalidInputError(f"row index {i} out of range [0, {sys.m})")
    omega = [float(static_step_sizes(sys, rule)[i])] if rule.is_static else None
    x_new = x.copy()
    # The kernel over the one-row system (a_i, v_i, beta_i).
    _sweep(x_new, [sys.a[i]], [sys.v[i]], omega, [float(sys.rhs[i])], [0])
    if not np.all(np.isfinite(x_new)):
        raise NumericError(f"non-finite iterate produced by row {i}")
    return x_new


def run(sys: SystemPair, p, cfg: SolverConfig) -> Trace:
    """Run the randomized iteration and log every ``log_stride`` steps.

    Iterations 0 and the final iterate are always logged.  Early stopping on
    the relative residual is checked at the logging points (keeping the
    per-step cost at O(n)).  Rows are drawn in blocks of ``ROW_BLOCK``, so a
    fixed config seed fixes the row sequence for every ``max_iterations`` and
    ``log_stride``: a shorter run is a prefix of a longer one.
    """
    return _run(sys, _sampler(sys, p), cfg, replicate_rng(cfg.seed))


def _sampler(sys: SystemPair, p) -> DiscreteSampler:
    p = check_probability_vector(p)
    if len(p) != sys.m:
        raise DimensionError(f"p has length {len(p)}, expected {sys.m}")
    return DiscreteSampler(p)


def _run(sys: SystemPair, sampler: DiscreteSampler, cfg: SolverConfig, rng) -> Trace:
    """The logged iteration of ``run``, drawing rows from ``sampler`` with ``rng``."""
    omega = static_step_sizes(sys, cfg.rule).tolist() if cfg.rule.is_static else None
    a_rows = list(sys.a)
    v_rows = list(sys.v)
    rhs = sys.rhs
    beta = rhs.tolist()

    x = initial_iterate(sys, cfg)
    rhs_norm = np.linalg.norm(rhs)
    tol_abs = cfg.residual_tolerance * rhs_norm
    rows_visited = np.zeros(sys.m, dtype=np.int64)

    logged_k: list[int] = []
    error_norms: list[float] = []
    residual_norms: list[float] = []
    logged_x: list[np.ndarray] | None = [] if cfg.keep_logged_iterates else None
    stopped_early = False

    def log_point(k):
        logged_k.append(k)
        if sys.truth is not None:
            error_norms.append(float(np.linalg.norm(x - sys.truth)))
        if logged_x is not None:
            logged_x.append(x.copy())
        residual = float(np.linalg.norm(sys.a @ x - rhs))
        residual_norms.append(residual)
        if not np.isfinite(residual):
            raise NumericError(f"non-finite residual at iteration {k}")
        return residual

    log_point(0)
    block = np.empty(0, dtype=np.intp)
    used = 0
    k = 0
    while k < cfg.max_iterations:
        k_log = min(k + cfg.log_stride, cfg.max_iterations)
        while k < k_log:
            if used == block.size:
                block = sampler.draw_array(rng, ROW_BLOCK)
                used = 0
            segment = block[used:used + k_log - k]
            _sweep(x, a_rows, v_rows, omega, beta, segment.tolist())
            rows_visited += np.bincount(segment, minlength=sys.m)
            used += segment.size
            k += segment.size
        residual = log_point(k)
        if k < cfg.max_iterations and cfg.residual_tolerance > 0 and residual <= tol_abs:
            stopped_early = True
            break

    return Trace(
        logged_k=logged_k,
        error_norms=error_norms,
        residual_norms=residual_norms,
        final_x=x,
        rows_visited=rows_visited,
        stopped_early=stopped_early,
        logged_x=logged_x,
    )


@dataclass
class ReplicateStats:
    """Replicate-averaged error statistics from a batch of independent runs."""

    logged_k: list[int]
    sq_errors: np.ndarray  # (n_logged, n_replicates) squared error norms
    final_x: np.ndarray  # (n_replicates, n) final iterates

    @property
    def mean_sq_errors(self):
        return self.sq_errors.mean(axis=1)


def run_replicates(sys: SystemPair, p, cfg: SolverConfig, n_replicates) -> ReplicateStats:
    """Run ``n_replicates`` independent copies of ``run`` for error statistics.

    Replicate r is the ``run`` iteration on the stream ``replicate_rng(cfg.seed,
    r)``, so replicate 0 is ``run(sys, p, cfg)`` itself.  Requires a known
    truth, since the point of replication is error statistics, and no early
    stop, which would leave the replicates with traces of different lengths.
    """
    if sys.truth is None:
        raise InvalidInputError("replicate statistics need a known solution")
    if n_replicates < 1:
        raise InvalidInputError(f"n_replicates must be >= 1, got {n_replicates}")
    if cfg.residual_tolerance > 0:
        raise InvalidInputError("replicate statistics need residual_tolerance = 0")
    sampler = _sampler(sys, p)
    traces = [
        _run(sys, sampler, cfg, replicate_rng(cfg.seed, r)) for r in range(n_replicates)
    ]
    return ReplicateStats(
        logged_k=traces[0].logged_k,
        sq_errors=np.square(np.column_stack([t.error_norms for t in traces])),
        final_x=np.array([t.final_x for t in traces]),
    )
