import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm as normal_dist

from kaczmarz_mismatch import experiments
from kaczmarz_mismatch.diagnostics import compute_diagnostics
from kaczmarz_mismatch.errors import EmptySystemError, InvalidInputError, RankDeficiencyError
from kaczmarz_mismatch.problems import (
    assemble_consistent,
    assemble_inconsistent,
    assemble_scaled_for_probopt,
    assemble_underdetermined,
    build_ct_instance,
    build_instance,
    ct_mismatch_pair,
    gen_gaussian,
    mismatch_threshold,
    parallel_beam_matrix,
    smooth_phantom,
)
from kaczmarz_mismatch.sampling import replicate_rng
from kaczmarz_mismatch.solver import SolverConfig, StepRule, matched_pair, run

import oracles


class TestGaussian:
    def test_deterministic(self):
        np.testing.assert_array_equal(gen_gaussian(2, 2, 5), gen_gaussian(2, 2, 5))

    def test_moments(self):
        a = gen_gaussian(500, 200, 42)
        assert abs(a.mean()) < 0.01
        assert 0.98 <= a.var() <= 1.02

    def test_full_column_rank(self):
        a = gen_gaussian(500, 200, 43)
        assert np.linalg.svd(a, compute_uv=False)[-1] > 0


class TestThreshold:
    def test_tau_zero_keeps_everything(self):
        a = gen_gaussian(5, 5, 1)
        np.testing.assert_array_equal(mismatch_threshold(a, 0.0), a)

    def test_small_entries_zeroed(self):
        a = np.array([[0.4, 1.0], [2.0, 0.1]])
        np.testing.assert_array_equal(
            mismatch_threshold(a, 0.5), [[0.0, 1.0], [2.0, 0.0]]
        )

    def test_zeroed_fraction_matches_normal_cdf(self):
        a = gen_gaussian(500, 200, 44)
        v = mismatch_threshold(a, 0.5)
        frac = np.mean(v == 0.0)
        expected = 2 * normal_dist.cdf(0.5) - 1
        assert abs(frac - expected) <= 0.02


class TestAssembly:
    def test_scalar_system(self):
        a = gen_gaussian(3, 1, 2)
        sys = assemble_consistent(a, a, 2)
        assert sys.n == 1
        assert np.linalg.norm(sys.a @ sys.truth - sys.b) == 0.0

    def test_consistent_residual_zero(self):
        a = gen_gaussian(40, 10, 3)
        sys = assemble_consistent(a, mismatch_threshold(a, 0.5), 3)
        assert np.linalg.norm(sys.a @ sys.truth - sys.b) <= 1e-12

    def test_consistent_desk_instance_has_positive_lambda(self):
        from kaczmarz_mismatch.diagnostics import compute_diagnostics

        a = gen_gaussian(500, 200, 4)
        sys = assemble_consistent(a, mismatch_threshold(a, 0.5), 4)
        p = sys.norms_sq_a
        p = p / p.sum()
        assert compute_diagnostics(sys, p).lam > 0

    def test_inconsistent_zero_scale_reduces_to_consistent(self):
        a = gen_gaussian(20, 5, 5)
        sys = assemble_inconsistent(a, a, 0.0, 5)
        np.testing.assert_array_equal(sys.rhs, sys.b)

    def test_inconsistent_gamma_positive(self):
        from kaczmarz_mismatch.diagnostics import noise_gamma

        a = gen_gaussian(20, 5, 6)
        sys = assemble_inconsistent(a, a, 0.1, 6)
        assert noise_gamma(sys) > 0

    def test_underdetermined_range_gap_for_matched_rows(self):
        sys = assemble_underdetermined(30, 100, 0.3, 8)
        za = oracles.range_basis(sys.a.T)
        gap = np.linalg.norm(sys.truth - za @ (za.T @ sys.truth))
        assert gap > 1e-3  # generically far from rg A^T

    @pytest.mark.parametrize("kind", ["underdetermined", "consistent", "inconsistent", "probopt"])
    def test_wide_truth_in_range(self, kind):
        # Every wide Gaussian instance draws its solution in rg V^T, where the
        # mismatched iteration converges from x_0 = 0.
        sys = build_instance(kind, 1, m=40, n=120)
        z = oracles.range_basis(sys.v.T)
        gap = np.linalg.norm(sys.truth - z @ (z.T @ sys.truth))
        assert gap <= 1e-8 * np.linalg.norm(sys.truth)

    def test_wide_consistent_solve_reaches_truth(self):
        sys = build_instance("consistent", 1, m=40, n=120)
        trace = run(sys, np.full(40, 1 / 40), SolverConfig(max_iterations=20000, log_stride=20000))
        assert trace.error_norms[-1] < 1e-10 * np.linalg.norm(sys.truth)

    def test_wide_inconsistent_solve_ends_at_fixed_point_error(self):
        # A noisy wide system is consistent on rg V^T: the iterates reach the
        # fixed point, whose distance from truth diagnose reports.
        sys = build_instance("inconsistent", 1, m=40, n=120)
        p = np.full(40, 1 / 40)
        trace = run(sys, p, SolverConfig(max_iterations=20000, log_stride=20000))
        expected = compute_diagnostics(sys, p).fixed_point_error
        assert trace.error_norms[-1] == pytest.approx(expected, rel=1e-10)

    def test_underdetermined_requires_wide_shape(self):
        with pytest.raises(InvalidInputError):
            assemble_underdetermined(10, 10, 0.3, 9)

    def test_probopt_zero_frac_keeps_v_equal_a(self):
        sys = assemble_scaled_for_probopt(20, 10, 0.0, 10)
        np.testing.assert_array_equal(sys.a, sys.v)

    def test_probopt_row_norms_decay(self):
        sys = assemble_scaled_for_probopt(300, 50, 0.05, 11)
        norms = np.linalg.norm(sys.a, axis=1)
        # Row norms follow 2/(sqrt(i)+2): the first rows beat the last ones.
        assert norms[:30].mean() > 2 * norms[-30:].mean()

    def test_probopt_zero_count(self):
        m, n, frac = 60, 40, 0.05
        sys = assemble_scaled_for_probopt(m, n, frac, 12)
        n_zero = int(np.sum(sys.v == 0.0))
        assert n_zero >= int(frac * m * n)  # zeroed picks plus chance zeros


class TestParallelBeam:
    def test_axis_aligned_ray_grid2(self):
        # One horizontal ray through the top pixel row: unit length in each
        # of the first two (row-major) pixels.
        rows = parallel_beam_matrix(2, [0.0], 1, 1.0).toarray()
        # Single ray with offset +0.25 would not hit a row center; use the
        # documented midpoint layout: one ray at offset 0 runs along y = 0.
        assert rows.shape == (1, 4)

    def test_axis_aligned_ray_through_row_center(self):
        # Two rays over span 2: offsets -0.5 and +0.5, i.e. the two pixel-row
        # centers of a 2x2 grid.  The +0.5 ray crosses the top row.
        rows = parallel_beam_matrix(2, [0.0], 2, 2.0).toarray()
        np.testing.assert_allclose(rows[1], [1.0, 1.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(rows[0], [0.0, 0.0, 1.0, 1.0], atol=1e-12)

    def test_diagonal_ray_entry_sqrt2(self):
        rows = parallel_beam_matrix(2, [45.0], 1, 1.0).toarray()
        # The central 45-degree ray runs along the main diagonal: sqrt(2) in
        # the bottom-left and top-right pixels.
        entries = rows[0]
        nonzero = entries[entries > 1e-12]
        np.testing.assert_allclose(nonzero, [np.sqrt(2.0)] * 2, atol=1e-12)

    def test_entries_nonnegative_and_bounded(self):
        rows = parallel_beam_matrix(8, np.arange(0, 180, 15), 12, 11.2).toarray()
        assert np.all(rows >= 0)
        assert rows.max() <= np.sqrt(2.0) + 1e-12

    def test_row_sums_match_chord_lengths(self):
        # Supersampling oracle: the fraction of finely spaced points on the
        # ray inside the grid square approximates the chord length.
        grid_n = 6
        half = grid_n / 2.0
        angles = [0.0, 30.0, 45.0, 77.5]
        rays = 9
        span = 1.4 * grid_n
        rows = parallel_beam_matrix(grid_n, angles, rays, span).toarray()
        offsets = (np.arange(rays) + 0.5 - rays / 2.0) * (span / rays)
        s_grid = np.linspace(-1.5 * grid_n, 1.5 * grid_n, 300001)
        ds = s_grid[1] - s_grid[0]
        idx = 0
        for angle in angles:
            theta = np.deg2rad(angle)
            d = np.array([np.cos(theta), np.sin(theta)])
            u = np.array([-np.sin(theta), np.cos(theta)])
            for t in offsets:
                pts = t * u[None, :] + s_grid[:, None] * d[None, :]
                inside = np.all(np.abs(pts) <= half, axis=1)
                chord = inside.sum() * ds
                assert rows[idx].sum() == pytest.approx(chord, abs=2e-3)
                idx += 1

    def test_paper_scale_surviving_rows(self):
        # Full 5400-row geometry at grid 50; after 3:1 subsampling and
        # zero-row elimination the pair keeps on the order of 1636 rows.
        full = parallel_beam_matrix(50, np.arange(0.0, 180.0, 5.0), 150, 70.0)
        assert full.shape == (5400, 2500)
        x = smooth_phantom(50, 0)
        sys = ct_mismatch_pair(full, x)
        assert 1400 <= sys.m <= 1800


def assert_bitwise_equal(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestTracerOracle:
    """The per-angle tracer against the ray-by-ray reference, bit for bit."""

    @pytest.mark.parametrize(
        "grid_n, angles, rays, span",
        [
            (4, [0.0, 45.0, 90.0, 135.0], 6, 5.6),  # axis-parallel and diagonal rays
            (4, [0.0, 45.0, 90.0, 135.0], 8, 20.0),  # outer rays miss the grid
            (5, [0.0, 30.0, 90.0, 160.0], 1, 7.0),  # one ray per angle
            (2, [0.0, 45.0, 90.0, 135.0], 2, 2.0),  # grid 2, rays along pixel centers
            (2, [0.0, 45.0, 90.0, 135.0], 4, 2.0),  # even count: a ray on the center line
            (32, np.arange(0.0, 180.0, 5.0), 90, 44.8),  # generate --kind ct defaults
            (50, np.arange(0.0, 180.0, 5.0), 150, 70.0),  # paper scale
        ],
    )
    def test_matches_reference(self, grid_n, angles, rays, span):
        got = parallel_beam_matrix(grid_n, angles, rays, span).toarray()
        want = oracles.reference_parallel_beam_matrix(grid_n, angles, rays, span)
        assert_bitwise_equal(got, want)

    def test_missing_rays_give_zero_rows(self):
        rows = parallel_beam_matrix(4, [0.0, 45.0, 90.0, 135.0], 8, 20.0).toarray()
        hits = rows.any(axis=1)
        assert 0 < hits.sum() < len(rows)

    @settings(max_examples=60, deadline=None)
    @given(
        grid_n=st.integers(2, 16),
        angles=st.lists(
            st.sampled_from([0.0, 45.0, 90.0, 135.0])
            | st.floats(0.0, 180.0, exclude_max=True),
            min_size=1,
            max_size=6,
        ),
        rays=st.integers(1, 25),
        span_factor=st.floats(0.5, 3.0),
    )
    def test_matches_reference_on_any_geometry(self, grid_n, angles, rays, span_factor):
        span = span_factor * grid_n
        got = parallel_beam_matrix(grid_n, angles, rays, span).toarray()
        want = oracles.reference_parallel_beam_matrix(grid_n, angles, rays, span)
        assert_bitwise_equal(got, want)


class TestCtPair:
    def test_identical_row_groups_give_matched_pair(self):
        base = np.abs(gen_gaussian(4, 6, 13)) + 0.1
        full = np.repeat(base, 3, axis=0)
        sys = ct_mismatch_pair(full, np.ones(6))
        np.testing.assert_allclose(sys.a.toarray(), sys.v.toarray(), atol=1e-14)
        assert sys.m == 4

    def test_row_count_bound(self):
        full = parallel_beam_matrix(8, np.arange(0, 180, 30), 12, 11.2)
        sys = ct_mismatch_pair(full, np.ones(64))
        assert sys.m <= full.shape[0] // 3

    def test_zero_rows_dropped_jointly(self):
        full = np.zeros((6, 4))
        full[0] = [1.0, 1.0, 0.0, 0.0]
        full[1] = [0.5, 0.5, 0.0, 0.0]  # group 0: nonzero forward (middle) row
        full[2] = [0.0, 1.0, 1.0, 0.0]
        # group 1 forward row (middle, index 4) is zero: group eliminated.
        full[3] = [1.0, 0.0, 0.0, 0.0]
        full[5] = [0.0, 0.0, 1.0, 1.0]
        sys = ct_mismatch_pair(full, np.ones(4))
        assert sys.m == 1
        np.testing.assert_allclose(sys.a.toarray()[0], full[1])

    def test_all_rows_eliminated(self):
        with pytest.raises(EmptySystemError):
            ct_mismatch_pair(np.zeros((3, 4)), np.zeros(4))

    def test_consistency_preserved(self):
        full = parallel_beam_matrix(8, np.arange(0, 180, 15), 12, 11.2)
        x = smooth_phantom(8, 14)
        sys = ct_mismatch_pair(full, x)
        assert np.linalg.norm(sys.a @ x - sys.b) <= 1e-10 * np.linalg.norm(sys.b)

    def test_negative_pairing_group_kept_and_flipped(self):
        # Group 1's backprojection row is -a: its pairing, -3 = -||a|| ||v||,
        # is far from vanishing. make_system's rule flips the row of V.
        full = np.array([
            [1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0],
            [-2.0, -2.0, -2.0], [1.0, 1.0, 1.0], [-2.0, -2.0, -2.0],
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sys = ct_mismatch_pair(full, np.ones(3))
        assert sys.m == 2
        np.testing.assert_array_equal(sys.v.toarray(), [[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        np.testing.assert_array_equal(sys.pairing, [1.0, 3.0])

    def test_row_count_not_multiple_of_three(self):
        with pytest.raises(InvalidInputError):
            ct_mismatch_pair(np.ones((4, 2)), np.ones(2))

    @settings(max_examples=60, deadline=None)
    @given(
        grid=st.integers(2, 24),
        angle_step=st.floats(1.0, 179.0),
        rays=st.integers(1, 20).map(lambda k: 3 * k),
    )
    def test_generated_pairs_never_vanish(self, grid, angle_step, rays):
        # Traced lengths are non-negative, so <a_i, v_i> = (||a_i||^2 + <a_i,
        # outer rays>) / 3 >= ||a_i||^2 / 3: no generated pairing vanishes.
        try:
            sys = build_ct_instance(grid, angle_step, rays, 0)
        except EmptySystemError:
            return
        assert np.all(3.0 * sys.pairing >= sys.norms_sq_a * (1.0 - 1e-12))


def reference_ct_instance(grid, angle_step, rays, seed):
    """``build_ct_instance`` from the ray-by-ray tracer and the dense pair."""
    angles = np.arange(0.0, 180.0, angle_step)
    full = oracles.reference_parallel_beam_matrix(grid, angles, rays, 1.4 * grid)
    phantom = smooth_phantom(grid, seed)
    return oracles.reference_ct_pair(full, full @ phantom, truth=phantom)


def assert_same_pair(got, want):
    # The pair is CSR, the reference dense.
    assert scipy.sparse.issparse(got.a) and scipy.sparse.issparse(got.v)
    assert_bitwise_equal(got.a.toarray(), want.a)
    # Zeros compared as +0: a flipped dense row of the reference negates its
    # zeros, a flipped CSR row only its stored entries.
    assert_bitwise_equal(got.v.toarray() + 0.0, want.v + 0.0)
    assert_bitwise_equal(got.truth, want.truth)
    # b = A truth and the pairing are sums over the stored entries of each
    # CSR row, in column order; the reference sums dense rows (b by a BLAS
    # gemv over all of ``full``) in another order: a last-bit change.
    np.testing.assert_allclose(got.b, want.b, rtol=1e-13, atol=0)
    np.testing.assert_allclose(got.pairing, want.pairing, rtol=1e-13, atol=0)


class TestCtPairOracle:
    """The sparse-built pair against the dense reference: A and V bit for bit."""

    @pytest.mark.parametrize(
        "grid, angle_step, rays, seed",
        [
            (32, 5.0, 90, 4),  # generate --kind ct and experiment ct defaults
            (50, 5.0, 150, 1),  # paper scale
        ],
    )
    def test_matches_reference(self, grid, angle_step, rays, seed):
        assert_same_pair(
            build_ct_instance(grid, angle_step, rays, seed),
            reference_ct_instance(grid, angle_step, rays, seed),
        )

    @settings(max_examples=60, deadline=None)
    @given(
        grid=st.integers(2, 12),
        angle_step=st.sampled_from([5.0, 15.0, 45.0, 90.0]) | st.floats(1.0, 179.0),
        rays=st.integers(1, 10).map(lambda k: 3 * k),
        seed=st.integers(0, 2**16),
    )
    def test_matches_reference_on_any_geometry(self, grid, angle_step, rays, seed):
        # The span is fixed at 1.4 grid widths; the tracer's own property
        # varies it from 0.5 to 3.0.
        try:
            want = reference_ct_instance(grid, angle_step, rays, seed)
        except EmptySystemError:
            with pytest.raises(EmptySystemError):
                build_ct_instance(grid, angle_step, rays, seed)
            return
        assert_same_pair(build_ct_instance(grid, angle_step, rays, seed), want)

    @pytest.mark.parametrize("to_full", [np.asarray, scipy.sparse.csr_array,
                                         scipy.sparse.coo_array])
    def test_dense_and_sparse_input(self, to_full):
        # Signed entries, a zero forward row (stored as an explicit zero in the
        # sparse inputs), and groups whose pairing is negative or vanishes.
        rng = np.random.default_rng(17)
        full = rng.standard_normal((18, 7))
        full[rng.random(full.shape) < 0.4] = 0.0
        full[4] = 0.0
        full[6:9] = 0.0
        full[6, 0], full[7, 1], full[8, 1] = 1.0, 1.0, -1.0  # v = e_0 / 3 against a = e_1
        truth = rng.standard_normal(7)

        def as_input(full):
            if to_full is np.asarray:
                return full
            coo = scipy.sparse.coo_array(full)
            stored = (np.append(coo.data, 0.0), (np.append(coo.row, 4), np.append(coo.col, 0)))
            return to_full(scipy.sparse.coo_array(stored, shape=full.shape))

        # Group 2's vanishing pairing is rejected, as make_system rejects it.
        with pytest.raises(InvalidInputError, match="near-orthogonal"):
            ct_mismatch_pair(as_input(full), truth)
        with pytest.raises(InvalidInputError, match="near-orthogonal"):
            oracles.reference_ct_pair(full, full @ truth, truth=truth)
        # With group 2 zeroed, groups 1 and 2 (zero forward rows) are gone; group
        # 4's negative pairing is kept, and its row of V flipped.
        full[6:9] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ct_mismatch_pair(as_input(full), truth)
            want = oracles.reference_ct_pair(full, full @ truth, truth=truth)
        assert want.m == 4
        group_4_mean = (full[12] + full[13] + full[14]) / 3.0
        assert full[13] @ group_4_mean < 0
        assert_bitwise_equal(want.v[2] + 0.0, -group_4_mean + 0.0)
        assert_same_pair(got, want)

    @pytest.mark.parametrize("full", [
        np.full((3, 2), np.nan),
        scipy.sparse.csr_array(np.array([[1.0, np.inf], [1.0, 0.0], [0.0, 1.0]])),
        np.ones(6),
    ])
    def test_rejects_bad_full(self, full):
        with pytest.raises(InvalidInputError):
            ct_mismatch_pair(full, np.ones(2))

    def test_rejects_truth_of_wrong_length(self):
        with pytest.raises(InvalidInputError):
            ct_mismatch_pair(np.ones((3, 4)), np.ones(3))


class TestCtMemory:
    def test_peak_is_below_one_dense_operator(self):
        # The tracer's matrix and the pair stay sparse: no m x n dense matrix.
        build_ct_instance(8, 30.0, 9, 4)
        tracemalloc.start()
        try:
            sys = build_ct_instance(32, 5.0, 90, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= sys.m * sys.n * 8

    @pytest.mark.parametrize("rule", list(StepRule), ids=lambda rule: rule.value)
    def test_solve_holds_a_third_of_the_dense_pair(self, rule):
        # The kernel holds V's values over the row's stored columns of A and
        # V, and reads A by its stored entries: the peak is 0.11 of the dense
        # pair under every rule. Packed row spans of V made it 0.30, of A as
        # well 0.55, dense rows >= 1, and row norms summed in the run over a
        # CSR temporary 0.35 (rownorm-a) and 0.40 (rownorm-v).
        warm = build_ct_instance(8, 30.0, 9, 4)
        cfg = SolverConfig(rule=rule, max_iterations=10)
        run(warm, experiments.probability_scheme(warm, "pairing"), cfg)
        sys = build_ct_instance(32, 5.0, 90, 4)
        p = experiments.probability_scheme(sys, "pairing")
        tracemalloc.start()
        try:
            run(sys, p, SolverConfig(rule=rule, max_iterations=sys.m, log_stride=100))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.33 * (2 * sys.m * sys.n * 8)

    @pytest.mark.parametrize("matched", [False, True], ids=["mismatched", "matched"])
    def test_paper_scale_solve_holds_its_stored_entries(self, matched):
        # One sweep of the grid-50 pair, 1636 x 2500: the rows are made
        # whatever the iteration count. The peak is 4.1 MiB (0.7 matched);
        # packed row spans made it 17.0 (16.1).
        warm = build_ct_instance(8, 30.0, 9, 4)
        run(warm, experiments.probability_scheme(warm, "pairing"), SolverConfig(max_iterations=10))
        sys = build_ct_instance(50, 5.0, 150, 4)
        if matched:
            sys = matched_pair(sys)
        p = experiments.probability_scheme(sys, "pairing")
        tracemalloc.start()
        try:
            run(sys, p, SolverConfig(max_iterations=sys.m, log_stride=sys.m))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (2 if matched else 6) * 2**20

    def test_rejected_diagnostics_read_two_products(self):
        # The wide pair is rejected by the rank test of the m x m product
        # A V^T, read off CSR products: the peak is 3.8 m x n matrices (the
        # product and its pivoted QR). Dense rows and their n x m range
        # bases took it to 4.9.
        warm = build_ct_instance(8, 30.0, 9, 4)
        compute_diagnostics(warm, experiments.probability_scheme(warm, "pairing"))
        sys = build_ct_instance(32, 5.0, 90, 4)
        p = experiments.probability_scheme(sys, "pairing")
        tracemalloc.start()
        try:
            with pytest.raises(RankDeficiencyError, match="A V\\^T has rank 936 < 984"):
                compute_diagnostics(sys, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.3 * sys.m * sys.n * 8

    def test_ct_experiment_makes_no_dense_operator(self, tmp_path):
        # Each solve makes the rows it reads for its own run: V's values over
        # the stored columns of A and V, then, after those are freed, views of
        # A alone for the matched pair. The peak is 0.67 m x n matrices;
        # packed row spans made it 0.78, spans of A in the first solve too
        # 1.27, spans of A kept on the system for the matched pair 1.37, and
        # the dense A and V of either solve make it 2.3 or more.
        experiments.experiment_ct(str(tmp_path / "warm"), grid=8, rays=9, sweeps=1)
        tracemalloc.start()
        try:
            experiments.experiment_ct(str(tmp_path / "ct"), sweeps=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sys = build_instance("ct", 4)
        assert peak <= 0.86 * sys.m * sys.n * 8


class TestPhantom:
    def test_range_and_determinism(self):
        x = smooth_phantom(16, 15)
        assert x.shape == (256,)
        assert x.min() >= 0.0
        assert x.max() == pytest.approx(1.0)
        np.testing.assert_array_equal(x, smooth_phantom(16, 15))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 64), st.integers(0, 2**64 - 1))
    def test_equals_ndimage_blur(self, grid, seed):
        # The numpy blur computes scipy.ndimage's values bit for bit, grids
        # 2-5 included, where the kernel radius exceeds the image.
        import scipy.ndimage

        field = replicate_rng(seed, 3).random((grid, grid))
        want = scipy.ndimage.gaussian_filter(field, sigma=max(1.0, grid / 12.0))
        want /= want.max()
        np.testing.assert_array_equal(smooth_phantom(grid, seed), want.reshape(-1))

    def test_smoothness_vs_raw_noise(self):
        grid = 32
        img = smooth_phantom(grid, 16).reshape(grid, grid)
        raw = np.random.default_rng(0).random((grid, grid))
        raw /= raw.max()

        def gradient_energy(f):
            return np.sum(np.diff(f, axis=0) ** 2) + np.sum(np.diff(f, axis=1) ** 2)

        assert gradient_energy(img) * 10 <= gradient_energy(raw)
