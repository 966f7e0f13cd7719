import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
import scipy.sparse

from kaczmarz_mismatch.errors import (
    DimensionError,
    InvalidInputError,
    NumericError,
)
from kaczmarz_mismatch import solver as solver_module
from kaczmarz_mismatch.sampling import DiscreteSampler, replicate_rng
from kaczmarz_mismatch.solver import (
    ROW_BLOCK,
    SolverConfig,
    StepRule,
    make_system,
    matched_pair,
    run,
    run_replicates,
    static_step_sizes,
    _kernel,
    _run,
    _sweep,
)

import oracles
from oracles import exact_one_step_expectation, rkma_step

ALL_RULES = list(StepRule)


def random_pair(rng, m, n, tau=0.5):
    """Gaussian system with thresholded surrogate rows and a known solution."""
    a = rng.standard_normal((m, n))
    v = np.where(np.abs(a) >= tau, a, 0.0)
    dead = ~v.any(axis=1)
    v[dead] = a[dead]  # small instances can zero out whole rows; keep those matched
    truth = rng.standard_normal(n)
    return make_system(a, v, a @ truth, truth=truth)


class TestMakeSystem:
    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            make_system(np.eye(2), np.eye(3), np.ones(2))

    def test_sign_flip_makes_pairing_positive(self):
        a = np.array([[1.0, 0.0]])
        v = np.array([[-1.0, 0.5]])
        sys = make_system(a, v, np.zeros(1))
        assert sys.pairing[0] > 0
        assert sys.v[0, 0] == 1.0

    def test_orthogonal_rows_rejected(self):
        a = np.array([[1.0, 0.0]])
        v = np.array([[0.0, 1.0]])
        with pytest.raises(InvalidInputError, match="pairing"):
            make_system(a, v, np.zeros(1))

    def test_inconsistent_truth_rejected(self):
        a = np.eye(2)
        with pytest.raises(InvalidInputError, match="truth"):
            make_system(a, a, np.array([1.0, 1.0]), truth=np.array([1.0, 2.0]))

    def test_noise_suspends_consistency_check(self):
        a = np.eye(2)
        sys = make_system(
            a, a, np.array([1.0, 1.0]),
            noise=np.array([0.0, 1.0]),
            truth=np.array([1.0, 1.0]),
        )
        np.testing.assert_array_equal(sys.rhs, [1.0, 2.0])

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_row_data_is_read_only(self, sparse):
        # Step sizes, the expectation operator, gamma and the row-norm p all
        # read the stored row data: an in-place edit of it is refused.
        sys = random_pair(np.random.default_rng(6), 5, 3, tau=0.3)
        if sparse:
            sys = make_system(scipy.sparse.csr_array(sys.a), scipy.sparse.csr_array(sys.v),
                              sys.b, truth=sys.truth)
        before = [static_step_sizes(sys, rule) for rule in ALL_RULES]
        for name in ("pairing", "norms_sq_a", "norms_sq_v"):
            row_data = getattr(sys, name)
            with pytest.raises(ValueError, match="read-only"):
                row_data /= row_data.sum()
        for rule, omega in zip(ALL_RULES, before):
            np.testing.assert_array_equal(static_step_sizes(sys, rule), omega)


class TestOperatorKinds:
    """make_system on a CSR pair and on its dense form builds the same system."""

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(1, 6),
        n=st.integers(1, 6),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        with_truth=st.booleans(),
    )
    def test_same_system(self, m, n, density, seed, with_truth):
        rng = np.random.default_rng(seed)
        a = oracles.random_csr(rng, (m, n), density)
        # Rows of v near +-a_i: pairings of both signs, some vanishing.
        signs = rng.choice([-1.0, 1.0], size=(m, 1))
        near = signs * a.toarray() + 0.3 * rng.standard_normal((m, n))
        v = oracles.random_csr(rng, (m, n), density, values=near)
        truth = rng.standard_normal(n) if with_truth else None
        b = a.toarray() @ truth if with_truth else rng.standard_normal(m)

        def build(a_rows, v_rows):
            try:
                return make_system(a_rows, v_rows, b, truth=truth)
            except InvalidInputError as exc:
                return exc

        got = build(a, v)
        want = build(a.toarray(), v.toarray())
        mixed = build(a.toarray(), v)  # one sparse operator: made dense
        if isinstance(want, Exception):
            for other in (got, mixed):
                assert (type(other), str(other)) == (type(want), str(want))
            return
        assert scipy.sparse.issparse(got.a) and scipy.sparse.issparse(got.v)
        np.testing.assert_array_equal(got.a.toarray().view(np.int64), want.a.view(np.int64))
        # Equal values are bitwise equal but for the sign of zeros: negating a
        # dense row negates its zeros too, negating a CSR row only its stored
        # entries (and toarray() adds stored entries to +0).
        np.testing.assert_array_equal(got.v.toarray(), want.v)

        def flips(sys_pair):
            return np.flatnonzero(np.any(oracles.dense(sys_pair.v) != v.toarray(), axis=1))

        np.testing.assert_array_equal(flips(got), flips(want))
        scale = np.sqrt(want.norms_sq_a * want.norms_sq_v)
        assert np.all(np.abs(got.pairing - want.pairing) <= 1e-13 * scale)
        for name in ("norms_sq_a", "norms_sq_v"):
            np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                       rtol=1e-13, atol=0)
        for name in ("a", "v", "pairing", "norms_sq_a", "norms_sq_v"):
            np.testing.assert_array_equal(getattr(mixed, name).view(np.int64),
                                          getattr(want, name).view(np.int64))

    def test_sparse_input_validated(self):
        bad = scipy.sparse.csr_array(np.array([[1.0, np.nan]]))
        with pytest.raises(InvalidInputError, match="NaN"):
            make_system(bad, bad, np.ones(1))


class TestStep:
    def test_oblique_lands_on_hyperplane(self):
        sys = make_system(
            np.array([[1.0, 0.0]]), np.array([[1.0, 1.0]]), np.array([2.0])
        )
        x_new = rkma_step(sys, np.zeros(2), 0, StepRule.OBLIQUE_EXACT)
        np.testing.assert_allclose(x_new, [2.0, 2.0], atol=1e-14)
        assert sys.a[0] @ x_new == pytest.approx(2.0, abs=1e-14)

    def test_matched_case_is_orthogonal_projection(self):
        a = np.array([[0.0, 3.0]])
        sys = make_system(a, a, np.array([3.0]))
        x_new = rkma_step(sys, np.array([5.0, 0.0]), 0, StepRule.OBLIQUE_EXACT)
        np.testing.assert_allclose(x_new, [5.0, 1.0], atol=1e-14)

    def test_fixed_point_on_hyperplane(self):
        sys = make_system(
            np.array([[1.0, 2.0]]), np.array([[1.0, 1.0]]), np.array([3.0])
        )
        x = np.array([1.0, 1.0])  # already satisfies <a, x> = 3
        np.testing.assert_allclose(
            rkma_step(sys, x, 0, StepRule.OBLIQUE_EXACT), x, atol=1e-14
        )

    def test_index_out_of_range(self):
        sys = make_system(np.eye(2), np.eye(2), np.ones(2))
        with pytest.raises(InvalidInputError):
            rkma_step(sys, np.zeros(2), 5)

    def test_hyperplane_exactness_random_sweep(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            m, n = int(rng.integers(1, 8)), int(rng.integers(2, 8))
            sys = random_pair(rng, m, n, tau=0.3)
            x = rng.standard_normal(n)
            i = int(rng.integers(m))
            x_new = rkma_step(sys, x, i, StepRule.OBLIQUE_EXACT)
            beta = sys.rhs[i]
            gap = abs(sys.a[i] @ x_new - beta)
            assert gap <= 1e-10 * (
                abs(beta) + np.linalg.norm(sys.a[i]) * np.linalg.norm(x_new)
            )

    def test_row_scaling_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            sys = random_pair(rng, 4, 5, tau=0.2)
            x = rng.standard_normal(5)
            i = int(rng.integers(4))
            base = rkma_step(sys, x, i, StepRule.OBLIQUE_EXACT)
            c, d = rng.uniform(0.1, 10.0, size=2)
            a2 = sys.a.copy()
            b2 = sys.b.copy()
            v2 = sys.v.copy()
            a2[i] *= c
            b2[i] *= c
            v2[i] *= d
            scaled = make_system(a2, v2, b2, truth=sys.truth)
            stepped = rkma_step(scaled, x, i, StepRule.OBLIQUE_EXACT)
            np.testing.assert_allclose(stepped, base, atol=1e-12)

    def test_matched_step_is_closest_point_on_hyperplane(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 6))
        truth = rng.standard_normal(6)
        sys = make_system(a, a, a @ truth, truth=truth)
        x = rng.standard_normal(6)
        i = 1
        x_new = rkma_step(sys, x, i, StepRule.OBLIQUE_EXACT)
        a_i = sys.a[i]
        for _ in range(100):
            w = rng.standard_normal(6)
            w -= (w @ a_i) / (a_i @ a_i) * a_i  # direction within the hyperplane
            z = x_new + w
            assert np.linalg.norm(x_new - x) <= np.linalg.norm(z - x) + 1e-10

    def test_step_size_variants(self):
        rng = np.random.default_rng(4)
        sys = random_pair(rng, 3, 4, tau=0.2)
        omega_a = static_step_sizes(sys, StepRule.INVERSE_ROW_NORM_A)
        omega_v = static_step_sizes(sys, StepRule.INVERSE_ROW_NORM_V)
        np.testing.assert_allclose(omega_a, 1.0 / sys.norms_sq_a)
        np.testing.assert_allclose(omega_v, 1.0 / sys.norms_sq_v)
        x = rng.standard_normal(4)
        for rule, omega in [
            (StepRule.INVERSE_ROW_NORM_A, omega_a),
            (StepRule.INVERSE_ROW_NORM_V, omega_v),
        ]:
            i = 1
            expected = x - omega[i] * (sys.a[i] @ x - sys.b[i]) * sys.v[i]
            np.testing.assert_allclose(rkma_step(sys, x, i, rule), expected, atol=1e-14)


def reference_step(sys, x, i, rule):
    """The row update written out in numpy, as the kernel's reference."""
    residual = sys.a[i] @ x - sys.rhs[i]
    return x - residual * static_step_sizes(sys, rule)[i] * sys.v[i]


class TestKernel:
    @pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.value)
    def test_sweep_matches_composed_steps(self, rule):
        rng = np.random.default_rng(40)
        a = rng.standard_normal((12, 7))
        v = np.where(np.abs(a) >= 0.3, a, 0.0)
        v[~v.any(axis=1)] = a[~v.any(axis=1)]
        sys = make_system(a, v, rng.standard_normal(12), noise=0.1 * rng.standard_normal(12))
        rows = rng.integers(12, size=60).tolist()
        x0 = rng.standard_normal(7)

        x = x0.copy()
        omega = static_step_sizes(sys, rule).tolist()
        _sweep(_kernel(sys, x), omega, sys.rhs.tolist(), rows)
        composed = x0
        reference = x0
        for i in rows:
            composed = rkma_step(sys, composed, i, rule)
            reference = reference_step(sys, reference, i, rule)
        assert np.linalg.norm(x - x0) > 1e-3  # the sweep moved x itself
        np.testing.assert_allclose(x, composed, rtol=0, atol=1e-12)
        np.testing.assert_allclose(x, reference, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.value)
    def test_shorter_run_is_prefix_of_longer_run(self, rule):
        # Every run replays the one row stream of its seed, drawn in blocks of
        # ROW_BLOCK, whatever its length and log stride.
        rng = np.random.default_rng(41)
        sys = random_pair(rng, 20, 6, tau=0.4)
        p = rng.random(20)
        p /= p.sum()
        sampler, stream = DiscreteSampler(p), replicate_rng(3)
        rows = np.concatenate([sampler.draw_array(stream, ROW_BLOCK) for _ in range(3)])
        replay = [np.zeros(sys.n)]
        for i in rows[:2 * ROW_BLOCK + 17]:
            replay.append(rkma_step(sys, replay[-1], int(i), rule))
        for k, stride in [(1, 1), (7, 3), (50, 50), (300, 7), (ROW_BLOCK, 100),
                          (ROW_BLOCK + 1, ROW_BLOCK + 1), (2 * ROW_BLOCK + 17, 500)]:
            short = run(sys, p, SolverConfig(rule=rule, max_iterations=k, log_stride=stride, seed=3))
            np.testing.assert_array_equal(short.final_x, replay[k])

    @pytest.mark.parametrize("tolerance", [0.0, 1e-10])
    def test_rows_visited_counts_steps_taken(self, tolerance):
        sys = make_system(np.eye(3), np.eye(3), np.ones(3), truth=np.ones(3))
        p = np.full(3, 1 / 3)
        cfg = SolverConfig(max_iterations=5000, log_stride=10, seed=2,
                           residual_tolerance=tolerance)
        trace = run(sys, p, cfg)
        assert trace.stopped_early == (tolerance > 0)
        steps = trace.logged_k[-1]
        assert trace.rows_visited.sum() == steps
        # Rows drawn into the block but never applied are not counted.
        exact = run(sys, p, SolverConfig(max_iterations=steps, log_stride=steps, seed=2))
        np.testing.assert_array_equal(trace.rows_visited, exact.rows_visited)


@st.composite
def span_pair(draw):
    """A random CSR pair (a, v), drawn row span by row span.

    Row i of ``a`` stores its first and last span column (one entry when they
    coincide) and about half of the columns between; row 0 spans every
    column.  Row i of ``v`` stores a non-empty subset of the columns of row
    i of ``a``, near those values, and small entries over a span of its own.
    Either end of a span may hold a stored zero.
    """
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def span():
        lo = draw(st.integers(0, n - 1))
        return lo, draw(st.integers(lo + 1, n))

    def row(cols, values, zero_end):
        order = np.argsort(cols)
        cols, values = np.asarray(cols)[order], np.asarray(values, dtype=float)[order]
        if zero_end != "none" and cols.size > 1:
            values[0 if zero_end == "first" else -1] = 0.0
        return cols, values

    a_rows, v_rows = [], []
    for i in range(m):
        lo, hi = (0, n) if i == 0 else span()
        inner = [c for c in range(lo + 1, hi - 1) if rng.random() < 0.5]
        a_cols = sorted({lo, hi - 1, *inner})
        a_vals = rng.standard_normal(len(a_cols))
        a_rows.append(row(a_cols, a_vals, draw(st.sampled_from(["none", "first", "last"]))))
        shared = sorted(rng.choice(a_cols, size=int(rng.integers(1, len(a_cols) + 1)),
                                   replace=False).tolist())
        v_lo, v_hi = span()
        own = [c for c in range(v_lo, v_hi) if c not in shared
               and (c in (v_lo, v_hi - 1) or rng.random() < 0.5)]
        v_vals = [a_vals[a_cols.index(c)] + 0.3 * rng.standard_normal() for c in shared]
        v_vals += (0.3 * rng.standard_normal(len(own))).tolist()
        v_rows.append(row(shared + own, v_vals, draw(st.sampled_from(["none", "first", "last"]))))

    def csr(rows):
        indptr = np.cumsum([0] + [cols.size for cols, _ in rows])
        return scipy.sparse.csr_array(
            (np.concatenate([v for _, v in rows]), np.concatenate([c for c, _ in rows]), indptr),
            shape=(m, n))

    return csr(a_rows), csr(v_rows), rng


@st.composite
def stored_entry_pair(draw):
    """A random CSR pair (a, v) whose rows of ``a`` often store one entry.

    Every row of ``a`` stores at least one nonzero; about a fifth of the
    others are zeros of either sign.  ``v`` stores the entries of ``a``,
    perturbed, and some of its own.  Both use int32 or int64 column indices,
    so the kernel reads A with and without copying its indices.
    """
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    index = draw(st.sampled_from([np.int32, np.int64]))
    stored = rng.random((m, n)) < draw(st.sampled_from([0.2, 0.6]))
    stored[rng.random(m) < 0.4] = False  # rows of one entry
    key = (np.arange(m), rng.integers(n, size=m))
    stored[key] = True
    values = rng.standard_normal((m, n))
    zeros = stored & (rng.random((m, n)) < 0.2)
    zeros[key] = False
    values[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    v_stored = stored | (rng.random((m, n)) < 0.3)
    v_values = np.where(stored, values, 0.0) + 0.3 * rng.standard_normal((m, n))

    def csr(mask, vals):
        rows, cols = np.nonzero(mask)
        indptr = np.concatenate([[0], np.cumsum(mask.sum(axis=1))])
        return scipy.sparse.csr_array(
            (vals[rows, cols], cols.astype(index), indptr.astype(index)), shape=(m, n))

    return csr(stored, values), csr(v_stored, v_values), rng


class TestRowSpans:
    """The kernel's rows of a CSR system against its dense form."""

    @staticmethod
    def systems(a, v, rng):
        """The system on (a, v) and on its dense form, or None if either is rejected."""
        truth = rng.standard_normal(a.shape[1])
        try:
            sparse = make_system(a, v, a @ truth, truth=truth)
            return sparse, make_system(a.toarray(), v.toarray(), sparse.b, truth=truth)
        except InvalidInputError:
            return None

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(span_pair(), stored_entry_pair()), st.booleans())
    def test_rows_read_the_stored_columns(self, pair, matched):
        a, v, rng = pair
        systems = self.systems(a, a if matched else v, rng)
        assume(systems is not None)
        sys = systems[0]
        a_rows, v_rows, columns, width, x = _kernel(sys, np.zeros(sys.n))
        dense_v = sys.v.toarray()
        for i in range(sys.m):
            a_cols = sys.a.indices[sys.a.indptr[i]:sys.a.indptr[i + 1]]
            v_cols = sys.v.indices[sys.v.indptr[i]:sys.v.indptr[i + 1]]
            # A's stored columns in A's order, then V's others, once each.
            others = [c for c in v_cols.tolist() if c not in a_cols.tolist()]
            assert columns[i].tolist() == a_cols.tolist() + others
            assert columns[i].dtype == np.intp
            assert width[i] == columns[i].size == v_rows[i].size
            np.testing.assert_array_equal(a_rows[i], sys.a.data[sys.a.indptr[i]:sys.a.indptr[i + 1]])
            np.testing.assert_array_equal(v_rows[i], dense_v[i, columns[i]])

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(span_pair(), stored_entry_pair()), st.booleans(),
           st.sampled_from(ALL_RULES), st.data())
    def test_row_update_writes_only_its_columns(self, pair, matched, rule, data):
        a, v, rng = pair
        systems = self.systems(a, a if matched else v, rng)
        assume(systems is not None)
        sys, dense = systems
        i = data.draw(st.integers(0, sys.m - 1))
        x0 = rng.standard_normal(sys.n)
        x = x0.copy()
        omega = static_step_sizes(sys, rule).tolist()
        kernel = _kernel(sys, x)
        _sweep(kernel, omega, sys.rhs.tolist(), [i])
        outside = np.ones(sys.n, dtype=bool)
        outside[kernel[2][i]] = False
        np.testing.assert_array_equal(x[outside], x0[outside])
        expected = reference_step(dense, x0, i, rule)
        scale = np.abs(x0).max() + np.abs(expected).max()
        np.testing.assert_allclose(x, expected, rtol=0, atol=1e-12 * scale)

    def check_run_matches_dense_form(self, pair, rule, iterations):
        a, v, rng = pair
        systems = self.systems(a, v, rng)
        assume(systems is not None)
        sparse, dense = systems
        p = np.full(sparse.m, 1.0 / sparse.m)
        cfg = SolverConfig(rule=rule, max_iterations=iterations, log_stride=7, seed=5)
        got, want = run(sparse, p, cfg), run(dense, p, cfg)
        scale = np.linalg.norm(sparse.truth) + max(want.error_norms)
        np.testing.assert_allclose(got.final_x, want.final_x, rtol=0, atol=1e-12 * scale)
        np.testing.assert_array_equal(got.rows_visited, want.rows_visited)

    @settings(max_examples=60, deadline=None)
    @given(span_pair(), st.sampled_from(ALL_RULES), st.integers(1, 60))
    def test_run_matches_dense_form(self, pair, rule, iterations):
        self.check_run_matches_dense_form(pair, rule, iterations)

    @settings(max_examples=80, deadline=None)
    @given(stored_entry_pair(), st.sampled_from(ALL_RULES), st.integers(1, 60))
    def test_stored_entry_run_matches_dense_form(self, pair, rule, iterations):
        self.check_run_matches_dense_form(pair, rule, iterations)


class TestMatchedPair:
    """``matched_pair`` against the matched system made afresh by ``make_system``."""

    @settings(max_examples=60, deadline=None)
    @given(span_pair(), st.booleans(), st.booleans(), st.sampled_from(ALL_RULES),
           st.integers(1, 60))
    def test_run_matches_fresh_system(self, pair, dense, noisy, rule, iterations):
        a, v, rng = pair
        if dense:
            a, v = a.toarray(), v.toarray()
        truth = rng.standard_normal(a.shape[1])
        noise = 0.1 * rng.standard_normal(a.shape[0]) if noisy else None
        try:
            sys = make_system(a, v, a @ truth, noise=noise, truth=truth)
        except InvalidInputError:
            sys = None
        assume(sys is not None)
        matched = matched_pair(sys)
        fresh = make_system(sys.a, sys.a, sys.b, noise=sys.noise, truth=sys.truth)
        assert matched.v is matched.a
        assert matched.noise is sys.noise and matched.truth is sys.truth
        # The row data is derived, not computed again: A's squared row norms,
        # which are what make_system computes for all three when V = A.
        row_data = (matched.pairing, matched.norms_sq_a, matched.norms_sq_v)
        assert all(r is sys.norms_sq_a for r in row_data)
        for r, want in zip(row_data, (fresh.pairing, fresh.norms_sq_a, fresh.norms_sq_v)):
            assert r.view(np.int64).tolist() == want.view(np.int64).tolist()

        def bits(trace):
            floats = (trace.error_norms, trace.residual_norms, trace.final_x)
            return (trace.logged_k, [np.asarray(f).view(np.int64).tolist() for f in floats],
                    trace.rows_visited.tolist(), trace.stopped_early)

        p = np.full(sys.m, 1.0 / sys.m)
        cfg = SolverConfig(rule=rule, max_iterations=iterations, log_stride=7, seed=5)
        assert bits(run(matched, p, cfg)) == bits(run(fresh, p, cfg))

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_runs_leave_the_system_as_made(self, sparse):
        # A run keeps nothing on the system: it holds its dataclass fields alone.
        rng = np.random.default_rng(12)
        a = np.where(rng.random((30, 10)) < 0.5, rng.standard_normal((30, 10)), 0.0)
        a[np.arange(30), np.arange(30) % 10] = 1.0  # no empty row
        v = a + np.where(a != 0, 0.05 * rng.standard_normal(a.shape), 0.0)
        if sparse:
            a, v = scipy.sparse.csr_array(a), scipy.sparse.csr_array(v)
        truth = rng.standard_normal(10)
        sys = make_system(a, v, a @ truth, truth=truth)
        fields = set(vars(sys))
        assert fields == {f.name for f in dataclasses.fields(sys)}
        p = np.full(sys.m, 1.0 / sys.m)
        cfg = SolverConfig(max_iterations=50, log_stride=10)
        run(sys, p, cfg)
        run(matched_pair(sys), p, cfg)
        run_replicates(sys, p, cfg, 3)
        assert set(vars(sys)) == fields


# Small integer entries keep every pairing cosine above 1/200 and the rounding
# of one step far below the tolerances used here.
small_ints = st.integers(-5, 5).map(float)


@st.composite
def single_row_case(draw):
    n = draw(st.integers(1, 8))
    a = draw(arrays(np.float64, n, elements=small_ints))
    v = draw(arrays(np.float64, n, elements=small_ints))
    assume(a @ v != 0.0)
    # Subnormal numbers carry no relative precision; the bounds below are relative.
    x = draw(arrays(np.float64, n, elements=st.floats(-10.0, 10.0, allow_subnormal=False)))
    beta = draw(st.floats(-10.0, 10.0, allow_subnormal=False))
    return a, v, x, beta


class TestStepProperties:
    @settings(max_examples=60, deadline=None)
    @given(single_row_case())
    def test_oblique_step_lands_on_a_hyperplane(self, case):
        a, v, x, beta = case
        sys = make_system(a[None, :], v[None, :], [beta])
        x_new = rkma_step(sys, x, 0, StepRule.OBLIQUE_EXACT)
        gap = abs(a @ x_new - beta)
        # Rounding scale of the residual, the update x + c v and the final dot product.
        scale = abs(beta) + np.abs(a) @ (np.abs(x) + np.abs(x_new) + np.abs(x_new - x))
        assert gap <= 1e-12 * scale

    @settings(max_examples=60, deadline=None)
    @given(single_row_case(), st.sampled_from(ALL_RULES),
           st.one_of(st.just(-1.0), st.floats(1e-2, 1e2)))
    def test_row_sign_flip_and_scaling_invariance(self, case, rule, factor):
        a, v, x, beta = case
        base = rkma_step(make_system(a[None, :], v[None, :], [beta]), x, 0, rule)
        scaled = make_system(factor * a[None, :], factor * v[None, :], [factor * beta])
        np.testing.assert_allclose(rkma_step(scaled, x, 0, rule), base, rtol=0, atol=1e-9)


class TestRun:
    def test_identity_system_converges_exactly(self):
        sys = make_system(np.eye(2), np.eye(2), np.ones(2), truth=np.ones(2))
        cfg = SolverConfig(max_iterations=50, log_stride=10, seed=5)
        trace = run(sys, [0.5, 0.5], cfg)
        assert trace.error_norms[-1] <= 1e-12

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(6)
        sys = random_pair(rng, 20, 5)
        p = np.full(20, 1 / 20)
        cfg = SolverConfig(max_iterations=200, log_stride=50, seed=9)
        t1 = run(sys, p, cfg)
        t2 = run(sys, p, cfg)
        np.testing.assert_array_equal(t1.final_x, t2.final_x)
        assert t1.error_norms == t2.error_norms

    def test_log_grid_and_row_counts(self):
        rng = np.random.default_rng(7)
        sys = random_pair(rng, 10, 4)
        cfg = SolverConfig(max_iterations=10, log_stride=3, seed=1)
        trace = run(sys, np.full(10, 0.1), cfg)
        assert trace.logged_k == [0, 3, 6, 9, 10]
        assert len(trace.residual_norms) == 5
        assert trace.rows_visited.sum() == 10

    def test_logged_iterates_snapshot(self):
        rng = np.random.default_rng(55)
        sys = random_pair(rng, 10, 4)
        cfg = SolverConfig(max_iterations=20, log_stride=5, seed=5)
        trace = run(sys, np.full(10, 0.1), cfg)
        assert len(trace.error_norms) == len(trace.logged_k)
        assert trace.error_norms[-1] == np.linalg.norm(trace.final_x - sys.truth)

    def test_early_stop_on_relative_residual(self):
        sys = make_system(np.eye(3), np.eye(3), np.ones(3), truth=np.ones(3))
        cfg = SolverConfig(
            max_iterations=10**4, log_stride=10, seed=2, residual_tolerance=1e-10
        )
        trace = run(sys, np.full(3, 1 / 3), cfg)
        assert trace.stopped_early
        assert trace.logged_k[-1] < 10**4

    def test_single_row_system(self):
        sys = make_system(
            np.array([[2.0, 0.0]]), np.array([[2.0, 1.0]]), np.array([4.0]),
        )
        trace = run(sys, np.array([1.0]), SolverConfig(max_iterations=3, seed=0))
        # One oblique step solves the single equation; later steps are no-ops.
        assert trace.residual_norms[-1] <= 1e-12

    def test_consistent_thresholded_instance_converges(self):
        # Desk-scale overdetermined instance; positive contraction constant
        # certifies linear convergence and the run realizes it.
        rng = np.random.default_rng(12345)
        a = rng.standard_normal((200, 50))
        v = np.where(np.abs(a) >= 0.5, a, 0.0)
        truth = rng.standard_normal(50)
        sys = make_system(a, v, a @ truth, truth=truth)
        p = sys.norms_sq_a
        p = p / p.sum()
        cfg = SolverConfig(max_iterations=2 * 10**4, log_stride=1000, seed=3)
        trace = run(sys, p, cfg)
        assert trace.error_norms[-1] <= 1e-6 * trace.error_norms[0]

    def test_range_confinement_when_started_in_range(self):
        rng = np.random.default_rng(8)
        m, n = 20, 60
        a = rng.standard_normal((m, n))
        v = np.where(np.abs(a) >= 0.3, a, 0.0)
        c = rng.standard_normal(m)
        truth = v.T @ c
        sys = make_system(a, v, a @ truth, truth=truth)
        z = oracles.range_basis(sys.v.T)
        cfg = SolverConfig(max_iterations=500, log_stride=50, seed=4)
        p = np.full(m, 1 / m)

        # Track the iterate at each log point by re-running to that horizon.
        for k in [50, 200, 500]:
            partial = run(sys, p, SolverConfig(max_iterations=k, log_stride=k, seed=4))
            x = partial.final_x
            out_of_range = np.linalg.norm(x - z @ (z.T @ x))
            assert out_of_range <= 1e-8 * np.linalg.norm(x)

    def test_underdetermined_plateau_vs_mismatched_decay(self):
        rng = np.random.default_rng(99)
        m, n = 40, 120
        a = rng.standard_normal((m, n))
        v = np.where(np.abs(a) >= 0.3, a, 0.0)
        c = rng.standard_normal(m)
        truth = v.T @ c
        sys_mis = make_system(a, v, a @ truth, truth=truth)
        sys_matched = make_system(a, a, a @ truth, truth=truth)
        p = sys_mis.norms_sq_a
        p = p / p.sum()
        cfg = SolverConfig(max_iterations=3 * 10**4, log_stride=2000, seed=11)

        trace_mis = run(sys_mis, p, cfg)
        trace_matched = run(sys_matched, p, cfg)

        assert trace_mis.error_norms[-1] <= 1e-6 * trace_mis.error_norms[0]

        za = oracles.range_basis(a.T)
        plateau = np.linalg.norm(truth - za @ (za.T @ truth))
        assert trace_matched.error_norms[-1] == pytest.approx(plateau, rel=1e-6)


class TestExactExpectation:
    def test_fixed_point(self):
        sys = make_system(np.eye(2), np.eye(2), np.ones(2), truth=np.ones(2))
        mean, mean_sq = exact_one_step_expectation(
            sys, np.ones(2), [0.5, 0.5], StepRule.OBLIQUE_EXACT
        )
        np.testing.assert_allclose(mean, np.ones(2), atol=1e-14)
        assert mean_sq == pytest.approx(0.0, abs=1e-14)

    def test_identity_closed_form(self):
        # A = V = I2, p = (1/2, 1/2), x - truth = (1, 0):
        # mean - truth = (1/2, 0), mean squared error = 1/2.
        sys = make_system(np.eye(2), np.eye(2), np.zeros(2), truth=np.zeros(2))
        mean, mean_sq = exact_one_step_expectation(
            sys, np.array([1.0, 0.0]), [0.5, 0.5], StepRule.OBLIQUE_EXACT
        )
        np.testing.assert_allclose(mean, [0.5, 0.0], atol=1e-14)
        assert mean_sq == pytest.approx(0.5, abs=1e-14)

    def test_identities_hold_on_random_instances(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            sys = random_pair(rng, 5, 3, tau=0.3)
            x = rng.standard_normal(3)
            p = rng.random(5)
            p /= p.sum()
            for rule in [
                StepRule.OBLIQUE_EXACT,
                StepRule.INVERSE_ROW_NORM_A,
                StepRule.INVERSE_ROW_NORM_V,
            ]:
                mean, mean_sq = exact_one_step_expectation(sys, x, p, rule)
                # Independent recomputation of both matrix forms.
                omega = static_step_sizes(sys, rule)
                d_mat = np.diag(p * omega)
                s_mat = np.diag(omega * np.sum(sys.v**2, axis=1))
                m_mat = np.eye(3) - sys.v.T @ d_mat @ sys.a
                e = x - sys.truth
                np.testing.assert_allclose(
                    mean - sys.truth, m_mat @ e, atol=1e-10 * max(np.linalg.norm(e), 1)
                )
                w = 2 * sys.v.T @ d_mat @ sys.a - sys.a.T @ s_mat @ d_mat @ sys.a
                expected_sq = e @ e - e @ w @ e
                assert mean_sq == pytest.approx(expected_sq, rel=1e-10, abs=1e-12)

    def test_requires_truth(self):
        sys = make_system(np.eye(2), np.eye(2), np.ones(2))
        with pytest.raises(InvalidInputError):
            exact_one_step_expectation(sys, np.zeros(2), [0.5, 0.5])

    def test_monte_carlo_consistency(self):
        rng = np.random.default_rng(20)
        sys = random_pair(rng, 6, 4, tau=0.3)
        x = rng.standard_normal(4)
        p = rng.random(6)
        p /= p.sum()
        mean, _ = exact_one_step_expectation(sys, x, p, StepRule.OBLIQUE_EXACT)

        n_draws = 10**5
        draw_rng = replicate_rng(21)
        idx = draw_rng.choice(6, size=n_draws, p=p)
        omega = static_step_sizes(sys, StepRule.OBLIQUE_EXACT)
        residuals = sys.a[idx] @ x - sys.b[idx]
        steps = x[None, :] - (residuals * omega[idx])[:, None] * sys.v[idx]
        mc_mean = steps.mean(axis=0)
        mc_se = steps.std(axis=0, ddof=1) / np.sqrt(n_draws)
        np.testing.assert_array_less(np.abs(mc_mean - mean), 5 * mc_se + 1e-12)


class TestReplicates:
    def test_matches_sequential_distribution(self):
        rng = np.random.default_rng(30)
        sys = random_pair(rng, 15, 5)
        p = np.full(15, 1 / 15)
        cfg = SolverConfig(max_iterations=100, log_stride=100, seed=7)
        stats = run_replicates(sys, p, cfg, 400)
        assert stats.sq_errors.shape == (2, 400)
        # Sequential runs with distinct seeds form an equivalent sample.
        seq = []
        for rid in range(100):
            trace = run(sys, p, SolverConfig(max_iterations=100, log_stride=100, seed=1000 + rid))
            seq.append(trace.error_norms[-1] ** 2)
        batch_mean = stats.mean_sq_errors[-1]
        seq_mean = np.mean(seq)
        pooled_se = np.sqrt(
            stats.sq_errors[-1].var(ddof=1) / 400 + np.var(seq, ddof=1) / 100
        )
        assert abs(batch_mean - seq_mean) <= 5 * pooled_se

    def test_contraction_in_expectation(self):
        from kaczmarz_mismatch.diagnostics import compute_diagnostics

        rng = np.random.default_rng(31)
        a = rng.standard_normal((60, 12))
        v = np.where(np.abs(a) >= 0.5, a, 0.0)
        truth = rng.standard_normal(12)
        sys = make_system(a, v, a @ truth, truth=truth)
        p = sys.norms_sq_a
        p = p / p.sum()
        lam = compute_diagnostics(sys, p, StepRule.OBLIQUE_EXACT).lam
        assert lam > 0

        cfg = SolverConfig(max_iterations=25, log_stride=1, seed=13)
        stats = run_replicates(sys, p, cfg, 300)
        for k in [5, 10, 20]:
            paired = stats.sq_errors[k + 1] - (1 - lam) * stats.sq_errors[k]
            se = paired.std(ddof=1) / np.sqrt(paired.shape[0])
            assert paired.mean() <= 3 * se

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 6),
        st.sampled_from(ALL_RULES), st.integers(0, 2**32 - 1),
        st.integers(1, 300), st.integers(1, 80), st.integers(1, 4),
    )
    def test_replicate_r_is_run_on_stream_r(self, sys_seed, m, n, rule, seed,
                                            iterations, stride, reps):
        rng = np.random.default_rng(sys_seed)
        sys = random_pair(rng, m, n)
        p = rng.random(m) + 0.1
        p /= p.sum()
        cfg = SolverConfig(rule=rule, max_iterations=iterations, log_stride=stride, seed=seed)
        stats = run_replicates(sys, p, cfg, reps)
        trace = run(sys, p, cfg)
        assert stats.logged_k == trace.logged_k
        assert stats.sq_errors.shape == (len(trace.logged_k), reps)
        assert stats.final_x.shape == (reps, n)
        np.testing.assert_array_equal(stats.final_x[0], trace.final_x)
        np.testing.assert_array_equal(stats.sq_errors[:, 0], np.square(trace.error_norms))
        for r in range(1, reps):
            other = _run(sys, DiscreteSampler(p), cfg, replicate_rng(seed, r))
            np.testing.assert_array_equal(stats.final_x[r], other.final_x)
            np.testing.assert_array_equal(stats.sq_errors[:, r], np.square(other.error_norms))

    @pytest.mark.parametrize("iterations", [110, 200])
    def test_overflow_raises(self, iterations):
        # Each rownorm-v step multiplies the error by 1 - a/v = -999: the
        # iterate is inf after about 103 steps and NaN from the next one on.
        sys = make_system([[1000.0]], [[1.0]], [1000.0], truth=[1.0])
        cfg = SolverConfig(
            rule=StepRule.INVERSE_ROW_NORM_V, max_iterations=iterations,
            log_stride=iterations,
        )
        with pytest.raises(NumericError, match=f"iteration {iterations}"):
            run(sys, [1.0], cfg)
        with pytest.raises(NumericError, match=f"iteration {iterations}"):
            run_replicates(sys, [1.0], cfg, 3)
        # Logged at every step, the squared norms overflow while the iterate
        # is still finite: |e_k| = 999^k, so the residual 1000 e_k passes
        # 1e154 at k = 51 and the error at k = 52.
        cfg = SolverConfig(
            rule=StepRule.INVERSE_ROW_NORM_V, max_iterations=iterations, log_stride=1
        )
        with pytest.raises(NumericError, match="non-finite residual at iteration 51$"):
            run(sys, [1.0], cfg)
        with pytest.raises(NumericError, match="non-finite error at iteration 52$"):
            run_replicates(sys, [1.0], cfg, 3)

    def test_rows_built_once_per_batch(self, monkeypatch):
        # The rows of A and V are made once per batch; each replicate reads
        # them against its own iterate.
        built = []
        rows = solver_module._rows

        def counted(sys):
            built.append(sys)
            return rows(sys)

        monkeypatch.setattr(solver_module, "_rows", counted)
        rng = np.random.default_rng(33)
        sys = random_pair(rng, 8, 3)
        cfg = SolverConfig(max_iterations=50, log_stride=10, seed=5)
        run_replicates(sys, np.full(8, 1 / 8), cfg, 5)
        assert built == [sys]
        run(sys, np.full(8, 1 / 8), cfg)
        assert built == [sys, sys]

    def test_replicates_compute_no_residual(self):
        rng = np.random.default_rng(32)
        sys = random_pair(rng, 8, 3)
        cfg = SolverConfig(max_iterations=50, log_stride=10, seed=5)
        full = _run(sys, DiscreteSampler(np.full(8, 1 / 8)), cfg, replicate_rng(5, 1))
        bare = _run(sys, DiscreteSampler(np.full(8, 1 / 8)), cfg, replicate_rng(5, 1),
                    residuals=False)
        assert len(full.residual_norms) == 6 and bare.residual_norms == []
        assert bare.error_norms == full.error_norms
        np.testing.assert_array_equal(bare.final_x, full.final_x)

    @pytest.mark.parametrize("reps", [0, -1])
    def test_rejects_empty_batch(self, reps):
        sys = make_system(np.eye(2), np.eye(2), np.ones(2), truth=np.ones(2))
        with pytest.raises(InvalidInputError):
            run_replicates(sys, [0.5, 0.5], SolverConfig(), reps)

    def test_rejects_early_stop(self):
        sys = make_system(np.eye(2), np.eye(2), np.ones(2), truth=np.ones(2))
        cfg = SolverConfig(residual_tolerance=1e-8)
        with pytest.raises(InvalidInputError):
            run_replicates(sys, [0.5, 0.5], cfg, 3)
