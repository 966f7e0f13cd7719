import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from kaczmarz_mismatch.errors import InvalidDistributionError
from kaczmarz_mismatch.sampling import (
    DiscreteSampler,
    check_probability_vector,
    replicate_rng,
)

import oracles


def inverse_cdf_draws(p, rng, size):
    """Reference sampler: inverse CDF on the cumulative weights."""
    edges = np.cumsum(p)
    return np.searchsorted(edges, rng.random(size), side="right").clip(0, len(p) - 1)


class TestValidation:
    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidDistributionError):
            check_probability_vector([0.5, 0.6, -0.1])

    def test_bad_sum_rejected(self):
        with pytest.raises(InvalidDistributionError):
            check_probability_vector([0.5, 0.4])

    def test_zero_weights_allowed(self):
        p = check_probability_vector([0.0, 1.0])
        assert p[0] == 0.0


class TestAliasSampler:
    def test_degenerate_always_first(self):
        sampler = DiscreteSampler([1.0, 0.0])
        rng = replicate_rng(1)
        draws = sampler.draw_array(rng, 1000)
        assert np.all(draws == 0)

    def test_fair_coin_frequency(self):
        sampler = DiscreteSampler([0.5, 0.5])
        rng = replicate_rng(2)
        draws = sampler.draw_array(rng, 10**6)
        freq0 = np.mean(draws == 0)
        assert 0.4985 <= freq0 <= 0.5015  # 3 sigma band for 1e6 Bernoulli(1/2)

    def test_three_point_frequencies_within_3_sigma(self):
        p = np.array([0.2, 0.3, 0.5])
        sampler = DiscreteSampler(p)
        rng = replicate_rng(3)
        n = 10**6
        draws = sampler.draw_array(rng, n)
        for i, pi in enumerate(p):
            se = np.sqrt(pi * (1 - pi) / n)
            assert abs(np.mean(draws == i) - pi) <= 3 * se

    def test_zero_weight_never_drawn(self):
        sampler = DiscreteSampler([0.4, 0.0, 0.6])
        rng = replicate_rng(4)
        draws = sampler.draw_array(rng, 10**5)
        assert not np.any(draws == 1)

    def test_scalar_draw_matches_distribution_support(self):
        sampler = DiscreteSampler([0.25, 0.25, 0.5])
        rng = replicate_rng(5)
        draws = {sampler.draw(rng) for _ in range(200)}
        assert draws <= {0, 1, 2}

    def test_chi_square_vs_inverse_cdf(self):
        # Alias draws and inverse-CDF draws should be indistinguishable in
        # distribution on a random 50-point simplex vector.
        rng_p = replicate_rng(6)
        p = rng_p.random(50)
        p /= p.sum()
        sampler = DiscreteSampler(p)
        n = 10**6
        alias_counts = np.bincount(
            sampler.draw_array(replicate_rng(7), n), minlength=50
        )
        ref_counts = np.bincount(
            inverse_cdf_draws(p, replicate_rng(8), n), minlength=50
        )
        expected = p * n
        for counts in (alias_counts, ref_counts):
            result = scipy.stats.chisquare(counts, expected)
            assert result.pvalue > 0.001


class TestAliasSamplerProperties:
    # Integer weights keep every positive p_i >= 1/300, so each expected
    # count is at least 100 and the chi-square approximation holds.
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 10), min_size=1, max_size=30).filter(any),
        st.integers(0, 2**32 - 1),
    )
    def test_frequencies_match_p(self, weights, seed):
        p = np.array(weights, dtype=float)
        p /= p.sum()
        n = 30000
        counts = np.bincount(
            DiscreteSampler(p).draw_array(replicate_rng(seed), n), minlength=len(p)
        )
        assert len(counts) == len(p)
        assert not np.any(counts[p == 0])
        support = p > 0
        if support.sum() > 1:
            result = scipy.stats.chisquare(counts[support], n * p[support])
            assert result.pvalue > 1e-6


@st.composite
def alias_distributions(draw):
    """Probability vectors mixing zeros, entries of exactly 1/m and free weights."""
    m = draw(st.integers(1, 60))
    kinds = draw(st.lists(st.sampled_from(["zero", "uniform", "free"]), min_size=m, max_size=m))
    if "free" not in kinds:
        kinds = ["uniform"] * m
    kinds = np.array(kinds)
    free = kinds == "free"
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=int(free.sum()),
                                     max_size=int(free.sum()))))
    if not weights.sum() > 0:
        weights = np.ones(weights.size)
    p = np.zeros(m)
    p[kinds == "uniform"] = 1.0 / m
    p[free] = weights / weights.sum() * (1.0 - np.count_nonzero(kinds == "uniform") / m)
    return p


class TestAliasTables:
    @settings(max_examples=200, deadline=None)
    @given(alias_distributions())
    def test_tables_match_numpy_scalar_construction(self, p):
        # The tables are built on Python floats, the IEEE arithmetic of
        # numpy float64 scalars: they agree bit for bit.
        sampler = DiscreteSampler(p)
        prob, alias = oracles.reference_alias_tables(p)
        assert sampler._prob_table.view(np.int64).tolist() == prob.view(np.int64).tolist()
        assert sampler._alias_table.dtype == alias.dtype
        assert sampler._alias_table.tolist() == alias.tolist()


class TestReplicateStreams:
    def test_same_seed_same_stream(self):
        a = replicate_rng(7, 0).random(64)
        b = replicate_rng(7, 0).random(64)
        np.testing.assert_array_equal(a, b)

    def test_different_replicates_differ(self):
        a = replicate_rng(7, 0).random(64)
        b = replicate_rng(7, 1).random(64)
        assert np.all(a != b)

    def test_pairwise_correlation_small(self):
        draws = np.stack(
            [replicate_rng(11, rid).random(10**4) for rid in range(100)]
        )
        corr = np.corrcoef(draws)
        off_diag = corr[~np.eye(100, dtype=bool)]
        assert np.max(np.abs(off_diag)) < 0.05
