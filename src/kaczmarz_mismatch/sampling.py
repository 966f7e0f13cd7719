"""Reproducible weighted sampling of row indices.

Row selection uses Walker's alias method: O(m) table construction, O(1) per
draw, exact distribution.  Replicate runs get statistically independent
streams derived from (seed, replicate_id) so experiment batches are
bit-reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidDistributionError
from .linalg import as_vector

# |sum(p) - 1| allowed at validation; fsum makes the check itself exact.
SUM_TOL = 1e-12


def check_probability_vector(p) -> np.ndarray:
    """Validate a point on the probability simplex and return it as an array.

    Zero weights are legal (those rows are simply never drawn); negative
    weights or a sum away from one are not.
    """
    p = as_vector(p, "probability vector")
    if np.any(p < 0):
        raise InvalidDistributionError(
            f"negative weight: min entry {p.min():.3e}"
        )
    total = math.fsum(p.tolist())
    if abs(total - 1.0) > SUM_TOL:
        raise InvalidDistributionError(
            f"weights sum to {total!r}, expected 1 within {SUM_TOL:g}"
        )
    return p


class DiscreteSampler:
    """Alias-table sampler over {0, ..., m-1} with prescribed probabilities.

    Immutable after construction; safe to share across replicates.
    """

    def __init__(self, p):
        p = check_probability_vector(p)
        m = len(p)
        # Python floats: the arithmetic of numpy float64 scalars, at a
        # fraction of their cost per operation.
        scaled = (p * m).tolist()
        prob_table = [1.0] * m
        alias_table = list(range(m))
        small = [i for i, s in enumerate(scaled) if s < 1.0]
        large = [i for i, s in enumerate(scaled) if s >= 1.0]
        while small and large:
            s = small.pop()
            l = large.pop()
            prob_table[s] = scaled[s]
            alias_table[s] = l
            scaled[l] = (scaled[l] + scaled[s]) - 1.0
            if scaled[l] < 1.0:
                small.append(l)
            else:
                large.append(l)
        for i in large + small:
            prob_table[i] = 1.0
        self.m = m
        self._prob_table = np.array(prob_table)
        self._alias_table = np.array(alias_table)

    def draw(self, rng) -> int:
        j = int(rng.integers(self.m))
        if rng.random() < self._prob_table[j]:
            return j
        return int(self._alias_table[j])

    def draw_array(self, rng, size) -> np.ndarray:
        j = rng.integers(self.m, size=size)
        keep = rng.random(size=size) < self._prob_table[j]
        return np.where(keep, j, self._alias_table[j])


def replicate_rng(seed, replicate_id=0) -> np.random.Generator:
    """Deterministic, pairwise-independent stream for one replicate.

    Streams are derived by hashing (seed, replicate_id); the same pair always
    reproduces the same draw sequence.
    """
    derived = np.random.SeedSequence(
        entropy=int(seed) & 0xFFFFFFFFFFFFFFFF,
        spawn_key=(int(replicate_id),),
    )
    return np.random.default_rng(derived)
