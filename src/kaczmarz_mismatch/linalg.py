"""Dense linear-algebra kernel used by the diagnostics and optimizers.

Matrices are plain float64 numpy arrays (row-major); vectors are 1-d arrays.
``as_csr`` validates the one sparse kind the package keeps, a CSR array,
for the operators that stay sparse from the ray tracer to the files.
The heavy factorizations are delegated to LAPACK via numpy/scipy, wrapped
behind small functions that pin down the contracts the rest of the package
relies on (tie test, rank drop tolerance, pivot checks).  It decides how
each rate is read, for ``diagnose`` and the optimizer alike, so the two
report the same bits: lambda_min by ``symmetric_eigensystem``, the spectral
norm by ``top_singular_triplet``.

The symmetric and singular-value functions compute only the end of the
spectrum they return, by LAPACK ``syevr`` over an index range:
``symmetric_eigensystem`` the lowest two eigenpairs (and lambda_max only
when its tie test needs it), and ``top_singular_triplet`` the top two
eigenpairs of the smaller Gram matrix, which syevr overwrites.  Where syevr
drops eigenvalues of a cluster that the range splits, the full
decomposition is used instead.
Each factorizing function makes its own LAPACK calls instead of calling
another factorizing function, so counting calls to them counts
factorizations.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import (
    ConvergenceError,
    DimensionError,
    InvalidInputError,
    RankDeficiencyError,
    SingularMatrixError,
)

# Relative gap below which the smallest eigenvalue, or the top singular
# value, counts as tied (a degenerate subdifferential point).
TIE_RTOL = 1e-10
# Rank drop tolerance of ``numerical_rank``, relative to ||M||_F.
RANK_DROP_RTOL = 1e-10
# Pivot threshold for declaring an LU factorization singular.
PIVOT_RTOL = 1e-12


class SingularTriplet(NamedTuple):
    """Top singular value with unit left/right vectors: M @ right = sigma * left.

    ``second`` is the next singular value (0.0 when M has only one), so a
    tied top value can be detected without a second factorization.
    """

    sigma: float
    left: np.ndarray
    right: np.ndarray
    second: float


def as_matrix(m, name="matrix") -> np.ndarray:
    """Validate and return a finite 2-d float64 array."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionError(f"{name} must be a 2-d array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError(f"{name} contains NaN or Inf entries")
    return m


class CSRArray(scipy.sparse.csr_array):
    """A CSR array whose ``nbytes`` counts its three arrays, as ``ndarray.nbytes`` does.

    So an operator reports the memory it holds whichever kind it is.
    """

    @property
    def nbytes(self):
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes


def as_csr(m, name="matrix") -> CSRArray:
    """Validate and return a finite 2-d float64 CSR array, dense input converted.

    The result has sorted column indices and no duplicate entries, and keeps
    stored zeros.  It may share its arrays with ``m``.
    """
    if not scipy.sparse.issparse(m):
        return CSRArray(as_matrix(m, name))
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionError(f"{name} must be a 2-d array, got shape {m.shape}")
    m = CSRArray(m, dtype=float)
    if not np.all(np.isfinite(m.data)):
        raise InvalidInputError(f"{name} contains NaN or Inf entries")
    if not m.has_canonical_format:
        m = m.copy()  # sum_duplicates works in place
        m.sum_duplicates()
    return m


def as_vector(v, name="vector") -> np.ndarray:
    """Validate and return a finite 1-d float64 array."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.shape[0] < 1:
        raise DimensionError(f"{name} must be a 1-d array, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError(f"{name} contains NaN or Inf entries")
    return v


def _require_square(m, name):
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")


# LAPACK dsyevr, called directly: scipy.linalg.eigh would query the
# workspace and validate its arguments again on every call.
_SYEVR, _SYEVR_LWORK = scipy.linalg.get_lapack_funcs(("syevr", "syevr_lwork"), dtype=float)
# (lwork, liwork) of dsyevr by matrix order, from one workspace query each.
_SYEVR_WORK: dict[int, tuple[int, int]] = {}


def _eigh_range(sym, lo, hi, eigvals_only=False, rebuild=None):
    """Eigenvalues lo..hi (0-based, ascending), with eigenvectors unless
    ``eigvals_only``, of a symmetric matrix by LAPACK syevr.

    syevr reads the lower triangle.  Given ``rebuild``, a function that
    makes ``sym`` again, syevr overwrites ``sym`` instead of a copy of it;
    ``sym`` must then be bitwise symmetric and C-ordered, since syevr reads
    its transpose, the same matrix in Fortran order.  syevr can return
    fewer eigenvalues than asked for, or fail, when the index range splits a
    cluster of equal eigenvalues, as in the Gram matrix of an oblique
    projector I - v a^T / <a, v>; the full decomposition is sliced instead.
    """
    n = sym.shape[0]
    if n not in _SYEVR_WORK:
        work, iwork, _ = _SYEVR_LWORK(n, lower=1)
        _SYEVR_WORK[n] = (int(work), int(iwork))
    lwork, liwork = _SYEVR_WORK[n]
    vals, vecs, found, _, info = _SYEVR(
        sym if rebuild is None else sym.T, compute_v=0 if eigvals_only else 1,
        range="I", lower=1, il=lo + 1, iu=hi + 1, lwork=lwork, liwork=liwork,
        overwrite_a=int(rebuild is not None),
    )
    if info == 0 and found == hi - lo + 1:
        return vals[:found] if eigvals_only else (vals[:found], vecs)
    if rebuild is not None:
        sym = rebuild()
    if eigvals_only:
        return np.linalg.eigvalsh(sym)[lo : hi + 1]
    vals, vecs = np.linalg.eigh(sym)
    return vals[lo : hi + 1], vecs[:, lo : hi + 1]


def symmetric_eigensystem(m) -> tuple[float, np.ndarray, bool]:
    """Smallest eigenvalue, a unit eigenvector for it, and whether it is tied.

    The input must be symmetric: the eigensolvers read its lower triangle
    only.  The smallest eigenvalue lambda_0 counts as tied when the gap to
    the next one is at most ``TIE_RTOL * max(|lambda_0|, |lambda_max|)``; a
    1x1 matrix has no tie.  Only the two lowest eigenpairs are computed.
    The threshold lies between ``TIE_RTOL * max(|lambda_0|, |lambda_1|)``
    and ``TIE_RTOL * ||M||_F`` (which bounds |lambda_max|), so lambda_max
    is solved for only when the gap falls between those two.
    """
    m = as_matrix(m, "symmetric matrix")
    _require_square(m, "symmetric matrix")
    n = m.shape[0]
    vals, vecs = _eigh_range(m, 0, min(1, n - 1))
    low, x = float(vals[0]), vecs[:, 0].copy()
    if n == 1:
        return low, x, False
    gap = vals[1] - vals[0]
    if gap > TIE_RTOL * max(float(np.linalg.norm(m)), 1e-30):
        return low, x, False
    if gap <= TIE_RTOL * max(abs(vals[0]), abs(vals[1]), 1e-30):
        return low, x, True
    top = _eigh_range(m, n - 1, n - 1, eigvals_only=True)[0]
    return low, x, bool(gap <= TIE_RTOL * max(abs(vals[0]), abs(top), 1e-30))


def spectral_radius(m) -> float:
    """Largest eigenvalue modulus of a square matrix (complex pairs included)."""
    m = as_matrix(m, "matrix")
    _require_square(m, "matrix")
    try:
        eigs = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        # Rare QR-iteration stall inside LAPACK.
        raise ConvergenceError(f"eigenvalue iteration did not converge: {exc}") from exc
    return float(np.max(np.abs(eigs)))


def top_singular_triplet(m) -> SingularTriplet:
    """Spectral norm of M together with the corresponding singular vectors.

    Read off the top two eigenpairs of the smaller Gram matrix, M^T M (or
    M M^T for a wide M): sigma and ``second`` are the square roots of their
    eigenvalues, the top eigenvector is ``right`` (``left``), and the other
    vector is M right / sigma (M^T left / sigma).  ``second`` is accurate to
    about eps * sigma when it is close to sigma, where tie tests read it, and
    to about sqrt(eps) * sigma when it is close to zero.  A zero matrix gives
    sigma = 0 with the first coordinate vectors.
    """
    m = as_matrix(m, "matrix")
    rows, cols = m.shape
    peak = max(m.max(), -m.min())  # max |m_ij|, without a copy of |M|
    if peak == 0.0:
        left = np.zeros(rows)
        right = np.zeros(cols)
        left[0] = 1.0
        right[0] = 1.0
        return SingularTriplet(0.0, left, right, 0.0)
    # Scaling by a power of two is exact and keeps the Gram matrix from
    # overflowing or underflowing for any finite M.
    exponent = int(np.frexp(peak)[1])
    m = np.ldexp(m, -exponent)
    wide = rows < cols

    def gram():
        # numpy forms either product by BLAS syrk: bitwise symmetric.
        return m @ m.T if wide else m.T @ m

    k = min(rows, cols)
    # syevr overwrites this Gram matrix: no copy of it is made.
    vals, vecs = _eigh_range(gram(), max(k - 2, 0), k - 1, rebuild=gram)
    sigma = math.sqrt(vals[-1])
    second = math.sqrt(max(vals[0], 0.0)) if k > 1 else 0.0
    top = vecs[:, -1].copy()
    other = (m.T @ top if wide else m @ top) / sigma
    left, right = (top, other) if wide else (other, top)
    return SingularTriplet(
        math.ldexp(sigma, exponent), left, right, math.ldexp(second, exponent)
    )


def numerical_rank(m) -> int:
    """Rank of M by column-pivoted QR, read off the diagonal of R alone.

    Diagonal entries of R with |R_kk| at or below ``RANK_DROP_RTOL * ||M||_F``
    do not count.  No Q is formed.  A zero matrix is rejected.
    """
    m = as_matrix(m, "matrix")
    fro = np.linalg.norm(m)
    if fro == 0.0:
        raise RankDeficiencyError("zero matrix has rank 0; no range basis exists")
    r, _ = scipy.linalg.qr(m, mode="r", pivoting=True)
    return int(np.count_nonzero(np.abs(np.diag(r)) > RANK_DROP_RTOL * fro))


def lu_solve(m, b) -> np.ndarray:
    """Solve the square system M x = b by partial-pivoted LU.

    Raises ``SingularMatrixError`` when the smallest pivot falls below
    ``PIVOT_RTOL * ||M||_F``.
    """
    m = as_matrix(m, "matrix")
    _require_square(m, "matrix")
    b = as_vector(b, "right-hand side")
    if b.shape[0] != m.shape[0]:
        raise DimensionError(
            f"rhs length {b.shape[0]} does not match matrix size {m.shape[0]}"
        )
    # LAPACK getrf, the call of scipy's lu_factor without its singularity
    # warning: the pivot check below is our singularity report.
    lu, piv, _ = scipy.linalg.lapack.dgetrf(m)
    pivots = np.abs(np.diag(lu))
    if pivots.min() <= PIVOT_RTOL * np.linalg.norm(m):
        raise SingularMatrixError(
            f"matrix is singular to working precision (min pivot {pivots.min():.3e})"
        )
    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)


def cholesky_coordinates(gram, m) -> tuple[np.ndarray, np.ndarray]:
    """(M L^-T, L) for the Cholesky factor L of ``gram`` = L L^T.

    For G = V V^T and M = A V^T these are the coordinates (A Z, V Z) in the
    orthonormal basis Z = V^T L^-T of rg V^T.  ``RankDeficiencyError`` when
    G is not positive definite to working precision.
    """
    try:
        low = scipy.linalg.cholesky(gram, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError(f"V V^T is not positive definite: {exc}") from exc
    coords = scipy.linalg.solve_triangular(low, m.T, lower=True, check_finite=False)
    return coords.T, low
