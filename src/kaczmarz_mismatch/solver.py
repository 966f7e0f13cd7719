"""Row-action solver with a mismatched adjoint.

One step picks a random row i and moves the iterate along the surrogate
direction v_i instead of a_i:

    x <- x - omega_i * (<a_i, x> - beta_i) * v_i

With the default step size omega_i = 1/<a_i, v_i> the update is the oblique
projection onto the hyperplane {x : <a_i, x> = beta_i}; with V = A it reduces
to the classical randomized Kaczmarz projection.  beta is the right-hand side
in use: b, or b plus the stored noise vector for inconsistent systems.

``_sweep`` is the one implementation of the update: ``run`` and
``run_replicates`` call it through ``_run``, the logged iteration on one
random stream.  A step is one BLAS ``ddot`` and one ``daxpy`` on the
iterate in place.

A dense row is read against the whole iterate.  A CSR row is read by its
stored entries: row i reads x at A's stored columns, in A's order, then at
V's other stored columns (one set of columns when ``v is a``, the matched
system of ``matched_pair``).  The kernel gathers x there once, takes
<a_i, x> with ``ddot`` over the first columns, against a view of
``A.data``, updates the gathered copy with ``daxpy`` and V's values over
all of them (0.0 where V stores none), and writes it back.  It writes no
other column.  ``_rows`` makes the O(nnz) layout once per ``run``, or once
per batch of ``run_replicates``, and it is freed when that ends; at grid
50 of the tomography pair it holds 2.25 MB where V's rows from first to
last stored column held 16.5 MB.

A ``SystemPair`` keeps its operators as they were built or read: dense
arrays, or CSR arrays (the tomography pair, and coordinate ``.mtx`` files).
Validation, the pairing and squared row norms (``make_system``, once per
system), the starting point and the logged residuals run on either kind, on
CSR over the stored entries only.  The expectation analysis
(``diagnostics.analysis_rows``) reads the dense rows when m >= n, and two
m x m products of the operators when m < n.  Sums over stored entries can
differ from dense sums in the last bits, so a CSR system and its dense form
can give different traces; reruns of either are byte-identical.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse
from scipy.linalg.blas import daxpy, ddot

from .errors import DimensionError, InvalidInputError, NumericError
from .linalg import CSRArray, as_csr, as_matrix, as_vector
from .sampling import DiscreteSampler, replicate_rng

# Rows whose pairing <a_i, v_i> falls below this relative threshold make the
# oblique step division meaningless; ``make_system`` rejects them.
PAIRING_RTOL = 1e-12
# Consistency required of (A, b, truth) when no noise vector is stored.
CONSISTENCY_RTOL = 1e-8
# Rows drawn per ``DiscreteSampler.draw_array`` call in ``run``.  The size is
# fixed, so the row sequence depends on the seed alone, not on the iteration
# count or the logging stride.
ROW_BLOCK = 1024


class StepRule(enum.Enum):
    """Step-size choices for the row update."""

    OBLIQUE_EXACT = "oblique"          # omega = 1/<a_i, v_i>, lands on the a-hyperplane
    INVERSE_ROW_NORM_A = "rownorm-a"   # omega = 1/||a_i||^2
    INVERSE_ROW_NORM_V = "rownorm-v"   # omega = 1/||v_i||^2


@dataclass(frozen=True)
class SystemPair:
    """A linear system together with its surrogate adjoint rows.

    ``a`` and ``v`` are (m, n), both dense arrays or both CSR arrays; ``b``
    is the consistent right-hand side.  When ``noise`` is present the solver
    actually sees b + noise.  ``truth`` is the known solution used for error
    tracking, if any.

    Use ``make_system`` to construct: it enforces the pairing rule and the
    consistency invariant, and sets the three read-only arrays of row data.
    """

    a: np.ndarray | CSRArray
    v: np.ndarray | CSRArray
    b: np.ndarray
    noise: np.ndarray | None = None
    truth: np.ndarray | None = None
    pairing: np.ndarray = field(default=None, repr=False)  # <a_i, v_i> per row
    norms_sq_a: np.ndarray = field(default=None, repr=False)  # ||a_i||^2 per row
    norms_sq_v: np.ndarray = field(default=None, repr=False)  # ||v_i||^2 per row

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


def _row_dots(x, y) -> np.ndarray:
    """<x_i, y_i> for every row i; on CSR rows, summed over the stored entries."""
    if scipy.sparse.issparse(x):
        return x.multiply(y).sum(axis=1)
    return np.einsum("ij,ij->i", x, y)


def _operators(a, v):
    """(a, v) validated as two dense arrays or two CSR arrays.

    A sparse operator paired with a dense one is made dense.  ``v is a``
    stays true.
    """
    same = v is a
    if scipy.sparse.issparse(a) and scipy.sparse.issparse(v):
        validate = as_csr
    else:
        validate = as_matrix
        a, v = (m.toarray() if scipy.sparse.issparse(m) else m for m in (a, v))
    a = validate(a, "a")
    return a, a if same else validate(v, "v")


def make_system(a, v, b, noise=None, truth=None) -> SystemPair:
    """Validate and assemble a ``SystemPair``, pairing its rows.

    The pairing rule: rows of ``v`` with a negative pairing are flipped in a
    copy (on CSR, their stored entries negated), and a row with |<a_i, v_i>|
    <= PAIRING_RTOL ||a_i|| ||v_i|| is rejected.
    """
    a, v = _operators(a, v)
    b = as_vector(b, "b")
    if a.shape != v.shape:
        raise DimensionError(f"a and v must share shape: {a.shape} vs {v.shape}")
    m, n = a.shape
    if b.shape[0] != m:
        raise DimensionError(f"b has length {b.shape[0]}, expected {m}")
    pairing = _row_dots(a, v)
    flip = pairing < 0
    if np.any(flip):
        v = v.copy()
        if scipy.sparse.issparse(v):
            v.data[np.repeat(flip, np.diff(v.indptr))] *= -1.0
        else:
            v[flip] *= -1.0
        pairing = np.abs(pairing)
    norms_sq_a = _row_dots(a, a)
    norms_sq_v = _row_dots(v, v)
    vanishing = pairing <= PAIRING_RTOL * np.sqrt(norms_sq_a) * np.sqrt(norms_sq_v)
    if np.any(vanishing):
        rows = np.flatnonzero(vanishing).tolist()
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
    for row_data in (pairing, norms_sq_a, norms_sq_v):
        row_data.flags.writeable = False
    return SystemPair(a, v, b, noise, truth, pairing, norms_sq_a, norms_sq_v)


def matched_pair(sys: SystemPair) -> SystemPair:
    """The system with V = A, keeping ``sys``'s b, noise and truth.

    It is what ``make_system`` would build from them, derived rather than
    checked again: with V = A the pairing and both squared norms are A's
    squared row norms, the same arithmetic bit for bit.  Its ``v is a``, so a
    run on it reads one set of rows, of A, for both operators.
    """
    return replace(sys, v=sys.a, pairing=sys.norms_sq_a, norms_sq_v=sys.norms_sq_a)


def static_step_sizes(sys: SystemPair, rule: StepRule) -> np.ndarray:
    """Per-row omega of ``rule``."""
    if rule is StepRule.OBLIQUE_EXACT:
        return 1.0 / sys.pairing
    if rule is StepRule.INVERSE_ROW_NORM_A:
        return 1.0 / sys.norms_sq_a
    return 1.0 / sys.norms_sq_v


@dataclass
class SolverConfig:
    rule: StepRule = StepRule.OBLIQUE_EXACT
    max_iterations: int = 1000
    log_stride: int = 1
    seed: int = 0
    residual_tolerance: float = 0.0  # relative to ||rhs||; 0 disables early stop
    start_coefficients: np.ndarray | None = None  # x0 = V^T c; None means x0 = 0

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


def initial_iterate(sys: SystemPair, cfg: SolverConfig) -> np.ndarray:
    if cfg.start_coefficients is not None:
        c = as_vector(cfg.start_coefficients, "start coefficients")
        if c.shape[0] != sys.m:
            raise DimensionError(
                f"start coefficients have length {c.shape[0]}, expected {sys.m}"
            )
        return sys.v.T @ c
    return np.zeros(sys.n)


def _merged_columns(a, v):
    """Row i's columns of CSR ``a`` and ``v`` and v's values over them.

    Returns (columns, values, bounds): row i is ``columns[lo:hi]`` and
    ``values[lo:hi]`` with lo, hi = ``bounds[i:i + 2]``.  Its columns are
    those ``a`` stores, in a's order, then the others ``v`` stores, in v's
    order; ``values`` holds v's entries, 0.0 where v stores none.  O(nnz),
    with no loop over rows; each temporary is freed once it is used.  Both
    operators are canonical (``as_csr``), so their entries sorted by row,
    then column, are sorted by the flat index row * n + column.
    """
    m, n = a.shape
    a_count, v_count = np.diff(a.indptr), np.diff(v.indptr)
    offsets = np.arange(m, dtype=np.int64) * n
    a_keys = np.repeat(offsets, a_count)
    a_keys += a.indices
    v_keys = np.repeat(offsets, v_count)
    v_keys += v.indices
    del offsets
    # The entry of a at the column of each entry of v, where a stores one.
    match = np.searchsorted(a_keys, v_keys)
    own = np.take(a_keys, match, mode="clip") != v_keys
    del a_keys, v_keys
    # own_before[k]: the entries of v before entry k that a does not store;
    # row_shift[i]: those in the rows before row i.
    own_before = np.zeros(v.nnz + 1, dtype=np.int64)
    np.cumsum(own, out=own_before[1:])
    row_shift = own_before[v.indptr]
    bounds = a.indptr + row_shift
    own_before = own_before[:-1]
    # Row i starts at bounds[i] with a's entries; v's own start at
    # a.indptr[i + 1] + row_shift[i].
    own_before += np.repeat(a.indptr[1:], v_count)
    match += np.repeat(row_shift[:-1], v_count)
    np.copyto(match, own_before, where=own)
    del own_before, own
    columns = np.empty(int(bounds[-1]), dtype=np.intp)
    values = np.zeros(columns.size)
    columns[match] = v.indices
    values[match] = v.data
    del match
    columns[np.arange(a.nnz) + np.repeat(row_shift[:-1], a_count)] = a.indices
    return columns, values, bounds.tolist()


def _rows(sys: SystemPair):
    """The rows ``_sweep`` reads, for every iterate of ``sys``.

    In order: the rows of A, the rows of V, the columns of x each row is
    read at (None when dense), and the rows' lengths.  A dense row covers
    all of x.  On CSR, row i of V covers the columns ``_merged_columns``
    gives row i, and row i of A, a view of ``A.data``, the first of them.
    When ``v is a`` one set of rows, over A's stored columns, serves both.
    """
    a = sys.a
    if not scipy.sparse.issparse(a):
        a_rows = list(a)
        return a_rows, a_rows if sys.v is a else list(sys.v), None, [sys.n] * sys.m
    if sys.v is a:
        columns, bounds = a.indices.astype(np.intp, copy=False), a.indptr.tolist()
        a_rows = v_rows = _pieces(a.data, bounds)
    else:
        columns, values, bounds = _merged_columns(a, sys.v)
        a_rows, v_rows = _pieces(a.data, a.indptr.tolist()), _pieces(values, bounds)
    return a_rows, v_rows, _pieces(columns, bounds), np.diff(bounds).tolist()


def _pieces(array, bounds):
    """The views ``array[bounds[i]:bounds[i + 1]]``, row by row."""
    return [array[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def _kernel(sys: SystemPair, x: np.ndarray, rows=None):
    """The arguments of ``_sweep`` for the iterate ``x``: ``rows`` from
    ``_rows(sys)``, made afresh when not given, followed by ``x``."""
    return (*(rows or _rows(sys)), x)


def _sweep(kernel, omega, beta, rows):
    """Apply the row updates for ``rows``, in order, to the iterate in place.

    Each is x <- x - omega_i (<a_i, x> - beta_i) v_i, with ``omega`` the step sizes.

    ``kernel`` comes from ``_kernel``.  A dense row is read against x
    itself.  A CSR row gathers x at its columns once: ``ddot`` reads A's
    entries against the first of them, ``daxpy`` updates the gathered copy
    with V's, and the copy is written back.  The iterate must be a
    contiguous float64 vector: ``daxpy`` silently updates a copy of
    anything else.  ``omega`` is not folded into scaled copies of the V
    rows, which would cost another copy of the rows for a few percent per
    step.
    """
    a_rows, v_rows, columns, width, x = kernel
    # daxpy's length is passed positionally: it parses keywords much more slowly.
    if columns is None:
        for i in rows:
            daxpy(v_rows[i], x, width[i], omega[i] * (beta[i] - ddot(a_rows[i], x)))
    else:
        for i in rows:
            c = columns[i]
            g = x[c]
            daxpy(v_rows[i], g, width[i], omega[i] * (beta[i] - ddot(a_rows[i], g)))
            x[c] = g


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
    sampler = DiscreteSampler(p)
    if sampler.m != sys.m:
        raise DimensionError(f"p has length {sampler.m}, expected {sys.m}")
    return sampler


def _run(
    sys: SystemPair, sampler: DiscreteSampler, cfg: SolverConfig, rng, residuals=True, rows=None
) -> Trace:
    """The logged iteration of ``run``, drawing rows from ``sampler`` with ``rng``.

    Without ``residuals`` (for ``run_replicates``, which keeps error norms
    only, and needs a known truth) no residual is computed and
    ``residual_norms`` stays empty; the error norm is checked for finiteness
    instead.  ``rows`` are ``_rows(sys)``, made for this run when None.
    """
    # The rows are made before the per-row lists below, so those lists are
    # not live at the rows' high-water mark.
    x = initial_iterate(sys, cfg)
    kernel = _kernel(sys, x, rows)
    omega = static_step_sizes(sys, cfg.rule).tolist()
    rhs = sys.rhs
    beta = rhs.tolist()
    rhs_norm = np.linalg.norm(rhs)
    tol_abs = cfg.residual_tolerance * rhs_norm
    rows_visited = np.zeros(sys.m, dtype=np.int64)

    logged_k: list[int] = []
    error_norms: list[float] = []
    residual_norms: list[float] = []
    stopped_early = False

    def log_point(k):
        logged_k.append(k)
        # The squared norm of a finite iterate past about 1e154 overflows: the
        # norm is then inf, without a warning, and the checks below raise.
        with np.errstate(over="ignore", invalid="ignore"):
            if sys.truth is not None:
                error_norms.append(float(np.linalg.norm(x - sys.truth)))
            residual = float(np.linalg.norm(sys.a @ x - rhs)) if residuals else None
        if not residuals:
            if not np.isfinite(error_norms[-1]):
                raise NumericError(f"non-finite error at iteration {k}")
            return None
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
            _sweep(kernel, omega, beta, segment.tolist())
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
    rows = _rows(sys)
    traces = [
        _run(sys, sampler, cfg, replicate_rng(cfg.seed, r), residuals=False, rows=rows)
        for r in range(n_replicates)
    ]
    return ReplicateStats(
        logged_k=traces[0].logged_k,
        sq_errors=np.square(np.column_stack([t.error_norms for t in traces])),
        final_x=np.array([t.final_x for t in traces]),
    )
