"""Experiment instance generators and the registry of named instances.

Gaussian systems (overdetermined, noisy, underdetermined), thresholded and
entry-zeroed surrogate adjoints, row-scaled instances for the probability
optimization study, and a parallel-beam tomography pair built from an exact
Siddon-style ray tracer over a unit-pixel grid.

``INSTANCES`` names the five instances of the paper's examples, each with
the one recipe that builds it and that recipe's parameters and defaults;
``build_instance`` builds one by name.  ``generate --kind`` and every
``experiment`` pipeline go through it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.ndimage
import scipy.sparse

from .errors import (
    DimensionError,
    EmptySystemError,
    InvalidInputError,
    SingularMatrixError,
)
from .linalg import as_matrix, as_vector, is_invertible
from .sampling import replicate_rng
from .solver import SystemPair, make_system


def gen_gaussian(m, n, seed) -> np.ndarray:
    """i.i.d. standard normal (m, n) matrix, deterministic per seed."""
    if m < 1 or n < 1:
        raise InvalidInputError(f"matrix shape ({m}, {n}) must be positive")
    return replicate_rng(seed).standard_normal((m, n))


def mismatch_threshold(a, tau) -> np.ndarray:
    """Surrogate adjoint rows: copy of A with entries |A_ij| < tau zeroed."""
    a = as_matrix(a, "a")
    if not tau >= 0:
        raise InvalidInputError(f"threshold tau = {tau} must be >= 0")
    return np.where(np.abs(a) >= tau, a, 0.0)


def assemble_consistent(a, v, seed) -> SystemPair:
    """Consistent system with a Gaussian solution: b = A x_hat."""
    a = as_matrix(a, "a")
    truth = replicate_rng(seed, 1).standard_normal(a.shape[1])
    return make_system(a, v, a @ truth, truth=truth)


def assemble_inconsistent(a, v, noise_scale, seed) -> SystemPair:
    """Noisy right-hand side: the solver sees b + r with Gaussian r.

    The consistent part b = A x_hat and the noise r are stored separately so
    the noise amplification and fixed-point error stay computable.
    """
    a = as_matrix(a, "a")
    rng = replicate_rng(seed, 1)
    truth = rng.standard_normal(a.shape[1])
    noise = noise_scale * rng.standard_normal(a.shape[0])
    return make_system(a, v, a @ truth, noise=noise, truth=truth)


def gaussian_instance(m, n, tau, seed, noise_scale=None) -> SystemPair:
    """Gaussian A with its threshold mismatch V (``tau``) and a Gaussian solution.

    With ``noise_scale`` the right-hand side carries Gaussian noise of that
    scale (``assemble_inconsistent``); without, it is consistent.
    """
    a = gen_gaussian(m, n, seed)
    v = mismatch_threshold(a, tau)
    if noise_scale is None:
        return assemble_consistent(a, v, seed)
    return assemble_inconsistent(a, v, noise_scale, seed)


def assemble_underdetermined(m, n, tau, seed) -> SystemPair:
    """Wide system whose solution lies in rg V^T (x_hat = V^T c).

    Generically x_hat is then *not* in rg A^T, so the matched iteration
    stalls at the range gap while the mismatched one can converge.
    """
    if m >= n:
        raise InvalidInputError(f"underdetermined instance needs m < n, got {m} x {n}")
    a = gen_gaussian(m, n, seed)
    v = mismatch_threshold(a, tau)
    c = replicate_rng(seed, 2).standard_normal(m)
    truth = v.T @ c
    if not is_invertible(a @ v.T):
        raise SingularMatrixError("A V^T is singular for this seed; pick another")
    return make_system(a, v, a @ truth, truth=truth)


def assemble_scaled_for_probopt(m, n, zero_frac, seed) -> SystemPair:
    """Row-scaled Gaussian instance with randomly zeroed surrogate entries.

    Row i (1-based) of A is scaled by 2 / (sqrt(i) + 2), giving decaying row
    norms; V equals A with floor(zero_frac * m * n) uniformly chosen entries
    set to zero.
    """
    if not 0 <= zero_frac < 1:
        raise InvalidInputError(f"zero_frac = {zero_frac} must be in [0, 1)")
    rng = replicate_rng(seed)
    a = rng.standard_normal((m, n))
    a *= (2.0 / (np.sqrt(np.arange(1, m + 1)) + 2.0))[:, None]
    v = a.copy()
    n_zero = int(zero_frac * m * n)
    if n_zero:
        flat = rng.choice(m * n, size=n_zero, replace=False)
        v.flat[flat] = 0.0
    truth = replicate_rng(seed, 1).standard_normal(n)
    return make_system(a, v, a @ truth, truth=truth)


def parallel_beam_matrix(
    grid_n, angles_deg, rays_per_angle, detector_span
) -> scipy.sparse.csr_array:
    """Exact line-intersection projection matrix for a parallel-beam geometry.

    The image is a grid_n x grid_n block of unit pixels centered at the
    origin, stored row-major with row 0 at the top (image convention).  For
    each angle, ``rays_per_angle`` parallel rays are spread over
    ``detector_span`` at evenly spaced lateral offsets (cell-midpoint
    spacing).  Row ordering is angle-major, ray-minor.  Each entry is the
    exact intersection length of the ray with a pixel; rays that miss the
    grid produce empty rows, which are kept at this stage.  A ray crosses
    at most 2 * grid_n pixels, so the matrix is returned as a
    ``scipy.sparse.csr_array`` of the traced entries only.

    The rays of one angle are traced together (Siddon's method): each ray's
    entry and exit parameters bound its traversal of the square, the
    grid-line crossings inside that traversal are sorted, and every segment
    between consecutive crossings adds its length to the pixel holding its
    midpoint.
    """
    if grid_n < 2:
        raise InvalidInputError(f"grid_n = {grid_n} must be >= 2")
    if len(angles_deg) == 0:
        raise InvalidInputError("no projection angles")
    if rays_per_angle < 1:
        raise InvalidInputError(f"rays_per_angle = {rays_per_angle} must be >= 1")
    if not detector_span > 0:
        raise InvalidInputError(f"detector_span = {detector_span} must be > 0")
    half = grid_n / 2.0
    offsets = (np.arange(rays_per_angle) + 0.5 - rays_per_angle / 2.0) * (
        detector_span / rays_per_angle
    )
    edges = np.arange(grid_n + 1) - half  # shared x and y grid-line coordinates
    rows, pixels, lengths = [], [], []
    for k, angle in enumerate(angles_deg):
        theta = np.deg2rad(angle)
        d = np.array([np.cos(theta), np.sin(theta)])  # ray direction
        u = np.array([-np.sin(theta), np.cos(theta)])  # lateral (detector) axis
        ray, pixel, length = _trace_angle(
            offsets[:, None] * u[None, :], d, edges, grid_n, half
        )
        rows.append(ray + k * rays_per_angle)
        pixels.append(pixel)
        lengths.append(length)
    shape = (len(angles_deg) * rays_per_angle, grid_n * grid_n)
    # The triples come sorted by (row, pixel) without repeats: CSR as they stand.
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(np.concatenate(rows), minlength=shape[0]), out=indptr[1:])
    return scipy.sparse.csr_array(
        (np.concatenate(lengths), np.concatenate(pixels), indptr), shape=shape
    )


def _trace_angle(origins, d, edges, grid_n, half):
    """(ray, pixel, length) triples of the parallel rays through ``origins`` along ``d``.

    Ray r passes through ``origins[r]``.  The triples are sorted by ray, then
    pixel; the lengths of the segments a ray leaves in one pixel are summed,
    in the order the ray crosses them.
    """
    # Parametric entry/exit of the bounding square along each axis.
    s_min = np.full(len(origins), -np.inf)
    s_max = np.full(len(origins), np.inf)
    hit = np.ones(len(origins), dtype=bool)
    crossings = []
    for axis in range(2):
        o = origins[:, axis]
        if abs(d[axis]) < 1e-14:
            hit &= (-half <= o) & (o <= half)  # parallel to the axis: inside the slab
        else:
            s0 = (-half - o) / d[axis]
            s1 = (half - o) / d[axis]
            s_min = np.maximum(s_min, np.minimum(s0, s1))
            s_max = np.minimum(s_max, np.maximum(s0, s1))
            crossings.append((edges[None, :] - o[:, None]) / d[axis])
    hit &= s_min < s_max
    ray = np.flatnonzero(hit)
    lo, hi = s_min[ray, None], s_max[ray, None]
    # Grid-line crossings inside each traversal, the others moved onto its exit,
    # where they bound only zero-length segments.
    s = np.concatenate([c[ray] for c in crossings], axis=1)
    s = np.where((s > lo) & (s < hi), s, hi)
    s = np.sort(np.concatenate([lo, hi, s], axis=1), axis=1)
    lengths = s[:, 1:] - s[:, :-1]
    mids = 0.5 * (s[:, 1:] + s[:, :-1])
    # Zero-length segments: repeated crossings (grid corners) and the moved ones.
    seg = np.flatnonzero(lengths > 0)
    r = ray[seg // lengths.shape[1]]
    mid = mids.reshape(-1)[seg]
    x = origins[:, 0][r] + mid * d[0]
    y = origins[:, 1][r] + mid * d[1]
    cols = np.clip(np.floor(x + half).astype(int), 0, grid_n - 1)
    rows_img = np.clip(grid_n - 1 - np.floor(y + half).astype(int), 0, grid_n - 1)
    n_pixels = grid_n * grid_n
    entry, slot = np.unique(r * n_pixels + rows_img * grid_n + cols, return_inverse=True)
    total = np.zeros(entry.size)
    np.add.at(total, slot, lengths.reshape(-1)[seg])
    return entry // n_pixels, entry % n_pixels, total


def _as_csr(m, name):
    """A finite 2-d float64 matrix, sparse or dense, as a CSR array."""
    if not scipy.sparse.issparse(m):
        return scipy.sparse.csr_array(as_matrix(m, name))
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionError(f"{name} must be a 2-d array, got shape {m.shape}")
    m = scipy.sparse.csr_array(m, dtype=float)
    if not np.all(np.isfinite(m.data)):
        raise InvalidInputError(f"{name} contains NaN or Inf entries")
    return m


def ct_mismatch_pair(full, truth) -> SystemPair:
    """Forward/backprojection pair from a full projection matrix, sparse or dense.

    The forward rows take every third row of ``full`` (the middle ray of
    each group of three); the backprojection rows average the group (a
    simple centered model of detector bin width, with the forward ray at
    the bin center).  The model does not guarantee rho(I - V^T D A) < 1:
    at the default ``ct`` geometry, with pairing-proportional p and the
    oblique rule, V^T D A has eigenvalues with negative real part (down to
    about -1.5e-5), so off its kernel the expected error grows slowly.
    Rows whose forward part is zero are eliminated from A and V together;
    rows with a vanishing pairing are dropped with a warning.  ``truth`` is
    the solution, and b = A truth.

    The rows are selected on CSR; only the kept A and V are made dense.
    """
    full = _as_csr(full, "full")
    truth = as_vector(truth, "truth")
    if full.shape[0] % 3 != 0:
        raise InvalidInputError(
            f"full matrix has {full.shape[0]} rows; expected a multiple of 3"
        )
    if truth.shape[0] != full.shape[1]:
        raise DimensionError(
            f"truth has length {truth.shape[0]}, expected {full.shape[1]}"
        )
    forward = full[1::3]
    kept = np.unique(forward.nonzero()[0])
    if kept.size == 0:
        raise EmptySystemError("all forward rows are zero")
    a = forward[kept].toarray()
    v = (full[0::3] + forward + full[2::3])[kept].toarray()
    v /= 3.0  # dense: a sparse division multiplies by 1/3, which rounds differently
    pairing = np.einsum("ij,ij->i", a, v)
    norms = np.sqrt(np.einsum("ij,ij->i", a, a)) * np.sqrt(np.einsum("ij,ij->i", v, v))
    ok = pairing > 1e-12 * norms
    dropped = int(np.count_nonzero(~ok))
    if dropped:
        warnings.warn(f"dropped {dropped} rows with vanishing pairing", stacklevel=2)
        a, v = a[ok], v[ok]
    if a.shape[0] == 0:
        raise EmptySystemError("all rows eliminated by the pairing filter")
    return make_system(a, v, a @ truth, truth=truth)


def smooth_phantom(grid_n, seed) -> np.ndarray:
    """Smooth positive test image, flattened row-major and scaled to max 1."""
    rng = replicate_rng(seed, 3)
    field = rng.random((grid_n, grid_n))
    smooth = scipy.ndimage.gaussian_filter(field, sigma=max(1.0, grid_n / 12.0))
    smooth /= smooth.max()
    return smooth.reshape(-1)


def build_ct_instance(grid, angle_step, rays, seed, span_factor=1.4) -> SystemPair:
    """Tomography pair whose solution is a smooth phantom.

    ``grid`` x ``grid`` unit pixels, parallel-beam angles 0, ``angle_step``,
    ... below 180 degrees, and ``rays`` rays per angle spread over
    ``span_factor * grid``; ``truth`` is the phantom.  ``rays`` must be a
    multiple of 3, so that every detector bin of ``ct_mismatch_pair`` holds
    three rays of one angle.
    """
    if not 0 < angle_step < np.inf:
        raise InvalidInputError(f"angle_step = {angle_step} must be finite and > 0")
    if rays % 3:
        raise InvalidInputError(f"rays = {rays} must be a multiple of 3")
    angles = np.arange(0.0, 180.0, angle_step)
    full = parallel_beam_matrix(grid, angles, rays, span_factor * grid)
    phantom = smooth_phantom(grid, seed)
    return ct_mismatch_pair(full, phantom)


@dataclass(frozen=True)
class Recipe:
    """How one named instance is built.

    ``builder`` names the function of this module that builds it; the name is
    looked up when the instance is built, so a wrapper installed on the module
    attribute sees every call.  ``defaults`` maps each of its parameters, in
    call order, to its default; the default's type is the parameter's type.
    """

    builder: str
    defaults: dict[str, object]

    def parameters(self, given):
        """``given`` over the defaults; a parameter the recipe lacks is invalid input."""
        unknown = sorted(set(given) - set(self.defaults))
        if unknown:
            raise InvalidInputError(f"{self.builder} takes no parameter {', '.join(unknown)}")
        return {**self.defaults, **given}


# The instances of the paper's numerical examples, by ``generate --kind``.
INSTANCES = {
    "consistent": Recipe("gaussian_instance", {"m": 200, "n": 50, "tau": 0.5}),
    "inconsistent": Recipe(
        "gaussian_instance", {"m": 200, "n": 50, "tau": 0.5, "noise_scale": 0.05}
    ),
    "underdetermined": Recipe("assemble_underdetermined", {"m": 60, "n": 300, "tau": 0.3}),
    "probopt": Recipe("assemble_scaled_for_probopt", {"m": 200, "n": 50, "zero_frac": 0.05}),
    "ct": Recipe("build_ct_instance", {"grid": 32, "angle_step": 5.0, "rays": 90}),
}


def build_instance(kind, seed, **params) -> SystemPair:
    """The instance ``kind`` of ``INSTANCES``; parameters not given take their defaults."""
    recipe = INSTANCES[kind]
    return globals()[recipe.builder](seed=seed, **recipe.parameters(params))
