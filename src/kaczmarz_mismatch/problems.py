"""Experiment instance generators and the registry of named instances.

Gaussian systems (overdetermined, noisy, underdetermined), thresholded and
entry-zeroed surrogate adjoints, row-scaled instances for the probability
optimization study, and a parallel-beam tomography pair built from an exact
Siddon-style ray tracer over a unit-pixel grid.  The Gaussian operators are
dense arrays; the ray matrix and the tomography pair are CSR arrays, never
made dense here.

``INSTANCES`` names the five instances of the paper's examples, each with
the one recipe that builds it and that recipe's parameters and defaults;
``build_instance`` builds one by name.  ``generate --kind`` and every
``experiment`` pipeline go through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import DimensionError, EmptySystemError, InvalidInputError
from .linalg import as_csr, as_matrix, as_vector
from .sampling import replicate_rng
from .solver import SystemPair, make_system

# Detector span of ``build_ct_instance``, in grid widths.
CT_SPAN_FACTOR = 1.4


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


def _solution(v, seed, rng) -> np.ndarray:
    """The solution x_hat of a Gaussian instance on the rows ``v``.

    Tall (m >= n): the next n Gaussian draws of ``rng``.  Wide (m < n):
    V^T c with Gaussian c from stream (seed, 2), so that x_hat lies in
    rg V^T, the subspace the mismatched iteration converges in from
    x_0 = 0; generically x_hat is then *not* in rg A^T, so the matched
    iteration stalls at the range gap.  ``rng`` advances by n draws either
    way, so what it draws next (the noise) does not depend on the shape.
    """
    v = as_matrix(v, "v")
    m, n = v.shape
    gaussian = rng.standard_normal(n)
    if m < n:
        return v.T @ replicate_rng(seed, 2).standard_normal(m)
    return gaussian


def assemble_consistent(a, v, seed) -> SystemPair:
    """Consistent system with a Gaussian solution (``_solution``): b = A x_hat."""
    a = as_matrix(a, "a")
    truth = _solution(v, seed, replicate_rng(seed, 1))
    return make_system(a, v, a @ truth, truth=truth)


def assemble_inconsistent(a, v, noise_scale, seed) -> SystemPair:
    """Noisy right-hand side: the solver sees b + r with Gaussian r.

    The consistent part b = A x_hat (``_solution``) and the noise r are
    stored separately so the noise amplification and fixed-point error stay
    computable.
    """
    a = as_matrix(a, "a")
    rng = replicate_rng(seed, 1)
    truth = _solution(v, seed, rng)
    noise = noise_scale * rng.standard_normal(a.shape[0])
    return make_system(a, v, a @ truth, noise=noise, truth=truth)


def gaussian_instance(m, n, tau, seed, noise_scale=None) -> SystemPair:
    """Gaussian A with its threshold mismatch V (``tau``) and ``_solution``'s x_hat.

    With ``noise_scale`` the right-hand side carries Gaussian noise of that
    scale (``assemble_inconsistent``); without, it is consistent.
    """
    a = gen_gaussian(m, n, seed)
    v = mismatch_threshold(a, tau)
    if noise_scale is None:
        return assemble_consistent(a, v, seed)
    return assemble_inconsistent(a, v, noise_scale, seed)


def assemble_underdetermined(m, n, tau, seed) -> SystemPair:
    """The consistent ``gaussian_instance``, which must be wide (m < n)."""
    if m >= n:
        raise InvalidInputError(f"underdetermined instance needs m < n, got {m} x {n}")
    return gaussian_instance(m, n, tau, seed)


def assemble_scaled_for_probopt(m, n, zero_frac, seed) -> SystemPair:
    """Row-scaled Gaussian instance with randomly zeroed surrogate entries.

    Row i (1-based) of A is scaled by 2 / (sqrt(i) + 2), giving decaying row
    norms; V equals A with floor(zero_frac * m * n) uniformly chosen entries
    set to zero.  The solution is ``_solution``'s.
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
    truth = _solution(v, seed, replicate_rng(seed, 1))
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


def ct_mismatch_pair(full, truth) -> SystemPair:
    """Forward/backprojection pair from a full projection matrix, sparse or dense.

    The forward rows take every third row of ``full`` (the middle ray of
    each group of three); the backprojection rows average the group (a
    simple centered model of detector bin width, with the forward ray at
    the bin center).  The model does not guarantee rho(I - V^T D A) < 1:
    at the default ``ct`` geometry, with pairing-proportional p and the
    oblique rule, V^T D A has eigenvalues with negative real part (down to
    about -1.5e-5), so off its kernel the expected error grows slowly.
    Rows whose forward part is zero are eliminated from A and V together; the
    rest are paired by ``make_system``, which flips a row of V with a negative
    pairing and rejects a vanishing one.  Ray-traced lengths are non-negative,
    so on a traced ``full`` every pairing is at least ||a_i||^2 / 3: only a
    hand-built signed ``full`` can vanish.  b = A ``truth``.

    The pair stays sparse: A and V are CSR arrays, and the rows are
    selected, and b and the pairings computed, over their stored entries.
    """
    full = as_csr(full, "full")
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
    a = forward[kept]
    # b on CSR: each row sums its entries in column order, whatever the BLAS
    # thread count (a dense gemv's summation order depends on it).
    b = a @ truth
    v = (full[0::3] + forward + full[2::3])[kept]
    v.data /= 3.0  # the dense quotients: a sparse division multiplies by 1/3
    return make_system(a, v, b, truth=truth)


def smooth_phantom(grid_n, seed) -> np.ndarray:
    """Smooth positive test image, flattened row-major and scaled to max 1.

    A uniform field from stream (seed, 3), blurred by ``_gaussian_blur`` with
    sigma = max(1, grid_n / 12).
    """
    rng = replicate_rng(seed, 3)
    field = rng.random((grid_n, grid_n))
    smooth = _gaussian_blur(field, max(1.0, grid_n / 12.0))
    smooth /= smooth.max()
    return smooth.reshape(-1)


def _gaussian_blur(image, sigma) -> np.ndarray:
    """SciPy's ``gaussian_filter(image, sigma)`` of a 2-d array, bit for bit.

    Separable, axis 0 then axis 1, with reflected boundaries (``np.pad``'s
    "symmetric") and the normalized kernel truncated at radius
    int(4 sigma + 0.5).  Each point sums w_0 x_i, then (x_{i+j} + x_{i-j}) w_j
    for j from the radius down to 1: the order of SciPy's correlation loop
    over a symmetric kernel, which keeps its bits.
    """
    radius = int(4.0 * sigma + 0.5)
    weights = np.exp(-0.5 / (sigma * sigma) * np.arange(-radius, radius + 1) ** 2)
    weights = weights / weights.sum()
    for _ in range(2):  # blur along axis 0 and transpose, twice
        size = image.shape[0]
        padded = np.pad(image, ((radius, radius), (0, 0)), mode="symmetric")
        blurred = weights[radius] * image
        for j in range(radius, 0, -1):
            pair = padded[radius + j : radius + j + size] + padded[radius - j : radius - j + size]
            blurred += pair * weights[radius + j]
        image = blurred.T
    return image


def build_ct_instance(grid, angle_step, rays, seed) -> SystemPair:
    """Tomography pair whose solution is a smooth phantom.

    ``grid`` x ``grid`` unit pixels, parallel-beam angles 0, ``angle_step``,
    ... below 180 degrees, and ``rays`` rays per angle spread over
    ``CT_SPAN_FACTOR * grid``; ``truth`` is the phantom.  ``rays`` must be a
    multiple of 3, so that every detector bin of ``ct_mismatch_pair`` holds
    three rays of one angle.
    """
    if not 0 < angle_step < np.inf:
        raise InvalidInputError(f"angle_step = {angle_step} must be finite and > 0")
    if rays % 3:
        raise InvalidInputError(f"rays = {rays} must be a multiple of 3")
    angles = np.arange(0.0, 180.0, angle_step)
    full = parallel_beam_matrix(grid, angles, rays, CT_SPAN_FACTOR * grid)
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
