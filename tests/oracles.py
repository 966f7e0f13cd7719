"""Independent numerical oracles used to cross-check the package.

The linalg oracles are deliberately written from scratch (Householder
tridiagonalization + Sturm bisection, power iteration, Faddeev-LeVerrier +
Aberth) so they share no code path with the LAPACK-backed implementations
under test.  ``reference_parallel_beam_matrix`` traces one ray at a time
into a dense matrix, the plain form of the per-angle sparse tracer in
``problems``, and ``reference_ct_pair`` builds the tomography pair from that
dense matrix, the plain form of ``problems.ct_mismatch_pair``.
``exact_one_step_expectation`` sums one step over every row, the oracle for
the closed-form expectation matrices of ``diagnostics``.
"""

import warnings

import numpy as np

from kaczmarz_mismatch.errors import (
    DimensionError,
    EmptySystemError,
    InvalidInputError,
    NumericError,
)
from kaczmarz_mismatch.linalg import as_matrix, as_vector
from kaczmarz_mismatch.sampling import check_probability_vector
from kaczmarz_mismatch.solver import StepRule, make_system, rkma_step, static_step_sizes


def tridiagonalize(m):
    """Householder reduction of a symmetric matrix to tridiagonal (d, e)."""
    a = np.array(m, dtype=float)
    n = a.shape[0]
    for k in range(n - 2):
        x = a[k + 1 :, k].copy()
        alpha = -np.sign(x[0]) * np.linalg.norm(x) if x[0] != 0 else -np.linalg.norm(x)
        if alpha == 0.0:
            continue
        v = x.copy()
        v[0] -= alpha
        v /= np.linalg.norm(v)
        # Apply P = I - 2 v v^T on both sides of the trailing block.
        sub = a[k + 1 :, k + 1 :]
        w = sub @ v
        tau = v @ w
        sub -= 2.0 * np.outer(v, w) + 2.0 * np.outer(w, v) - 4.0 * tau * np.outer(v, v)
        a[k + 1 :, k + 1 :] = 0.5 * (sub + sub.T)
        a[k + 1 :, k] = 0.0
        a[k, k + 1 :] = 0.0
        a[k + 1, k] = alpha
        a[k, k + 1] = alpha
    return np.diag(a).copy(), np.diag(a, -1).copy()


def count_eigs_below(d, e, x):
    """Number of eigenvalues of the tridiagonal (d, e) strictly below x."""
    n = len(d)
    count = 0
    q = d[0] - x
    if q < 0:
        count += 1
    tiny = 1e-300
    for i in range(1, n):
        if q == 0.0:
            q = tiny
        q = (d[i] - x) - e[i - 1] * e[i - 1] / q
        if q < 0:
            count += 1
    return count


def sturm_smallest_eig(m, tol=1e-12):
    """Smallest eigenvalue of a symmetric matrix by Sturm-sequence bisection."""
    d, e = tridiagonalize(0.5 * (np.asarray(m, float) + np.asarray(m, float).T))
    pad = np.concatenate([[0.0], np.abs(e), [0.0]])
    radius = np.abs(d) + pad[:-1] + pad[1:]
    lo = float(np.min(d - radius))
    hi = float(np.max(d + radius))
    scale = max(abs(lo), abs(hi), 1.0)
    while hi - lo > tol * scale:
        mid = 0.5 * (lo + hi)
        if count_eigs_below(d, e, mid) >= 1:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def sturm_largest_eig(m, tol=1e-12):
    return -sturm_smallest_eig(-np.asarray(m, float), tol=tol)


def power_top_sigma(m, iters=20000, tol=1e-14, seed=0):
    """Top singular value via power iteration on M^T M."""
    m = np.asarray(m, float)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m.shape[1])
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(iters):
        w = m.T @ (m @ v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v_new = w / norm
        sigma_new = np.sqrt(norm)
        if abs(sigma_new - sigma) <= tol * max(sigma_new, 1.0) and v_new @ v > 0.999999:
            return sigma_new
        v, sigma = v_new, sigma_new
    return sigma


def power_sigma_pair(m, iters=20000, seed=0):
    """Top two singular values; the second via deflation of the first."""
    m = np.asarray(m, float)
    rng = np.random.default_rng(seed)
    v1 = rng.standard_normal(m.shape[1])
    v1 /= np.linalg.norm(v1)
    for _ in range(iters):
        w = m.T @ (m @ v1)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0, 0.0
        v1 = w / norm
    sigma1 = np.sqrt(norm)
    v2 = rng.standard_normal(m.shape[1])
    v2 -= (v2 @ v1) * v1
    v2 /= np.linalg.norm(v2)
    for _ in range(iters):
        w = m.T @ (m @ v2)
        w -= (w @ v1) * v1
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return sigma1, 0.0
        v2 = w / norm
    return sigma1, np.sqrt(norm)


def charpoly_coefficients(m):
    """Characteristic polynomial coefficients via Faddeev-LeVerrier.

    Returns c with p(x) = x^n + c[0] x^{n-1} + ... + c[n-1].
    """
    m = np.asarray(m, float)
    n = m.shape[0]
    coeffs = []
    mk = np.zeros_like(m)
    ck = 1.0
    for k in range(1, n + 1):
        mk = m @ (mk + ck * np.eye(n))
        ck = -np.trace(mk) / k
        coeffs.append(ck)
    return np.array(coeffs)


def aberth_roots(coeffs, iters=200, tol=1e-13):
    """All roots of x^n + c[0] x^{n-1} + ... + c[n-1] by Aberth iteration."""
    coeffs = np.asarray(coeffs, dtype=complex)
    n = len(coeffs)
    poly = np.concatenate([[1.0 + 0j], coeffs])
    dpoly = poly[:-1] * np.arange(n, 0, -1)
    radius = 1.0 + np.max(np.abs(coeffs))
    angles = 2.0 * np.pi * (np.arange(n) + 0.5) / n + 0.3
    z = radius * np.exp(1j * angles)
    for _ in range(iters):
        p = np.polyval(poly, z)
        dp = np.polyval(dpoly, z)
        ratio = np.where(dp != 0, p / np.where(dp == 0, 1.0, dp), 0.0)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        correction = ratio / (1.0 - ratio * np.sum(1.0 / diff, axis=1))
        z = z - correction
        if np.max(np.abs(correction)) < tol * max(1.0, np.max(np.abs(z))):
            break
    return z


def charpoly_spectral_radius(m):
    """Spectral radius from characteristic roots; small well-scaled matrices only."""
    return float(np.max(np.abs(aberth_roots(charpoly_coefficients(m)))))


def matrix_with_known_spectrum(real_eigs, complex_pairs, seed=0):
    """Orthogonal similarity of a quasi-triangular matrix with chosen spectrum.

    complex_pairs is a list of (re, im) giving conjugate pairs re +- i*im.
    Returns (M, exact spectral radius).
    """
    rng = np.random.default_rng(seed)
    blocks = [np.array([[r]]) for r in real_eigs]
    blocks += [np.array([[re, im], [-im, re]]) for re, im in complex_pairs]
    order = rng.permutation(len(blocks))
    blocks = [blocks[i] for i in order]
    n = sum(b.shape[0] for b in blocks)
    t = np.zeros((n, n))
    # Coupling above the block diagonal leaves the spectrum intact; entries
    # inside a 2x2 block must stay untouched.
    coupling = np.triu(rng.standard_normal((n, n)), 1)
    pos = 0
    for b in blocks:
        k = b.shape[0]
        coupling[pos : pos + k, pos : pos + k] = 0.0
        pos += k
    t += coupling
    pos = 0
    for b in blocks:
        k = b.shape[0]
        t[pos : pos + k, pos : pos + k] = b
        pos += k
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    m = q @ t @ q.T
    radius = max(
        [abs(r) for r in real_eigs] + [np.hypot(re, im) for re, im in complex_pairs]
    )
    return m, float(radius)


def reference_parallel_beam_matrix(grid_n, angles_deg, rays_per_angle, detector_span):
    """``problems.parallel_beam_matrix`` traced ray by ray, in the same arithmetic."""
    half = grid_n / 2.0
    offsets = (np.arange(rays_per_angle) + 0.5 - rays_per_angle / 2.0) * (
        detector_span / rays_per_angle
    )
    rows = np.zeros((len(angles_deg) * rays_per_angle, grid_n * grid_n))
    edges = np.arange(grid_n + 1) - half  # shared x and y grid-line coordinates
    row_idx = 0
    for angle in angles_deg:
        theta = np.deg2rad(angle)
        d = np.array([np.cos(theta), np.sin(theta)])  # ray direction
        u = np.array([-np.sin(theta), np.cos(theta)])  # lateral (detector) axis
        for t in offsets:
            _trace_ray(rows[row_idx], t * u, d, edges, grid_n, half)
            row_idx += 1
    return rows


def _trace_ray(out, origin, d, edges, grid_n, half):
    """Accumulate intersection lengths of one ray into a flat pixel row."""
    # Parametric entry/exit of the bounding square along each axis.
    s_min, s_max = -np.inf, np.inf
    for axis in range(2):
        if abs(d[axis]) < 1e-14:
            if not -half <= origin[axis] <= half:
                return  # parallel to the axis and outside the slab
        else:
            s0 = (-half - origin[axis]) / d[axis]
            s1 = (half - origin[axis]) / d[axis]
            s_min = max(s_min, min(s0, s1))
            s_max = min(s_max, max(s0, s1))
    if not s_min < s_max:
        return
    # All grid-line crossings inside the traversal interval.
    crossings = [np.array([s_min, s_max])]
    for axis in range(2):
        if abs(d[axis]) >= 1e-14:
            s_cross = (edges - origin[axis]) / d[axis]
            crossings.append(s_cross[(s_cross > s_min) & (s_cross < s_max)])
    s = np.unique(np.concatenate(crossings))
    mids = 0.5 * (s[1:] + s[:-1])
    lengths = np.diff(s)
    points = origin[None, :] + mids[:, None] * d[None, :]
    cols = np.clip(np.floor(points[:, 0] + half).astype(int), 0, grid_n - 1)
    rows_img = np.clip(
        grid_n - 1 - np.floor(points[:, 1] + half).astype(int), 0, grid_n - 1
    )
    np.add.at(out, rows_img * grid_n + cols, lengths)


def reference_ct_pair(full, b_full, truth=None):
    """``problems.ct_mismatch_pair`` on a dense ``full`` with its right-hand side ``b_full``.

    Every third row (the middle of each group) is a forward row, each
    group's mean is its backprojection row; zero forward rows and rows with a
    vanishing pairing are dropped from A, V and b together.
    """
    full = as_matrix(full, "full")
    b_full = as_vector(b_full, "b_full")
    if full.shape[0] % 3 != 0:
        raise InvalidInputError(
            f"full matrix has {full.shape[0]} rows; expected a multiple of 3"
        )
    if b_full.shape[0] != full.shape[0]:
        raise InvalidInputError("b_full length does not match the full matrix")
    a = full[1::3]
    v = (full[0::3] + full[1::3] + full[2::3]) / 3.0
    b = b_full[1::3]
    nonzero = a.any(axis=1)
    a, v, b = a[nonzero], v[nonzero], b[nonzero]
    if a.shape[0] == 0:
        raise EmptySystemError("all forward rows are zero")
    pairing = np.einsum("ij,ij->i", a, v)
    norms = np.linalg.norm(a, axis=1) * np.linalg.norm(v, axis=1)
    ok = pairing > 1e-12 * norms
    dropped = int(np.count_nonzero(~ok))
    if dropped:
        warnings.warn(f"dropped {dropped} rows with vanishing pairing", stacklevel=2)
        a, v, b = a[ok], v[ok], b[ok]
    if a.shape[0] == 0:
        raise EmptySystemError("all rows eliminated by the pairing filter")
    return make_system(a, v, b, truth=truth)


def exact_one_step_expectation(sys, x, p, rule=StepRule.OBLIQUE_EXACT):
    """Exact one-step expectation by direct summation over all rows.

    Returns (mean, mean_sq_error) where mean = sum_i p_i * step(x, i) and
    mean_sq_error = sum_i p_i * ||step(x, i) - truth||^2.  Before returning,
    both values are cross-checked against the closed matrix forms

        mean - truth = (I - V^T D A)(x - truth)
        mean_sq_error = ||e||^2 - <e, (2 V^T D A - A^T S D A) e>,  e = x - truth

    with D = diag(p_i * omega_i), S = diag(omega_i * ||v_i||^2); a mismatch
    beyond 1e-10 (relative) raises ``NumericError``.
    """
    if sys.truth is None:
        raise InvalidInputError("exact expectation needs the known solution")
    if sys.noise is not None:
        raise InvalidInputError("exact expectation is defined for consistent systems")
    if not rule.is_static:
        raise InvalidInputError("adaptive rule has no static expectation matrices")
    p = check_probability_vector(p)
    if len(p) != sys.m:
        raise DimensionError(f"p has length {len(p)}, expected {sys.m}")
    x = as_vector(x, "x")

    mean = np.zeros(sys.n)
    mean_sq = 0.0
    for i in range(sys.m):
        stepped = rkma_step(sys, x, i, rule)
        mean += p[i] * stepped
        diff = stepped - sys.truth
        mean_sq += p[i] * float(diff @ diff)

    # Closed-form cross-check (the defining identities of the scaling matrices).
    omega = static_step_sizes(sys, rule)
    d = p * omega
    s = omega * sys.row_norms_sq("v")
    e = x - sys.truth
    vtda_e = sys.v.T @ (d * (sys.a @ e))
    scale = max(float(np.linalg.norm(e)), 1.0)
    mean_err = np.linalg.norm((mean - sys.truth) - (e - vtda_e))
    if mean_err > 1e-10 * scale:
        raise NumericError(
            f"one-step mean deviates from (I - V^T D A) e by {mean_err:.3e}"
        )
    ae = sys.a @ e
    quad = float(e @ e) - (2.0 * float(e @ vtda_e) - float(ae @ (s * d * ae)))
    if abs(mean_sq - quad) > 1e-10 * max(abs(quad), scale**2):
        raise NumericError(
            f"one-step mean squared error deviates from the quadratic form: "
            f"{mean_sq:.16e} vs {quad:.16e}"
        )
    return mean, mean_sq
