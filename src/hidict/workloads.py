"""Frequency distributions and query sampling for the benchmark experiments.

Rank-frequency laws are normalized to proper distributions (the retrieval
bounds need the weight sum at or below 1, and query sampling needs a
distribution); every ratio between ranks is preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class WorkloadSpec:
    dist: str  # "zipfian" or "inverse_power"
    n: int
    alpha: float
    delta: float
    queries: int = 100_000

    def base_frequencies(self) -> np.ndarray:
        if self.dist == "zipfian":
            return zipf_frequencies(self.n, self.alpha)
        if self.dist == "inverse_power":
            return inverse_power_frequencies(self.n, self.alpha)
        raise ValueError("unknown distribution %r" % (self.dist,))


def zipf_frequencies(n: int, alpha: float) -> np.ndarray:
    """Normalized f_i proportional to 1/i**alpha for ranks 1..n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 1 <= alpha < math.inf:  # the comparisons also reject nan
        raise ValueError("alpha must be finite and >= 1 for the Zipfian workload, got %r"
                         % (alpha,))
    ranks = np.arange(1, n + 1, dtype=float)
    f = ranks ** -alpha
    return f / f.sum()


def inverse_power_frequencies(n: int, alpha: float) -> np.ndarray:
    """Normalized f_i proportional to alpha**-i; tail is inverse-exponential."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 1 < alpha < math.inf:
        raise ValueError("alpha must be finite and > 1 for the inverse power workload, got %r"
                         % (alpha,))
    # compute in log space to survive alpha**-i underflow at large n
    log_f = -np.arange(1, n + 1, dtype=float) * math.log(alpha)
    log_f -= log_f.max()
    f = np.exp(log_f)
    return f / f.sum()


def adversarial_rank(i: int, n: int, delta: float) -> int:
    """Noisy rank i*(1-delta) + delta*(n-i+1), rounded half-up and clamped."""
    if not 1 <= i <= n:
        raise ValueError("rank out of range")
    return int(_adversarial_ranks(i, n, delta))


def _adversarial_ranks(i, n: int, delta: float):
    """``adversarial_rank`` of ``i``, an int or an int array of ranks in
    [1, n], in float64 arithmetic either way."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must be in [0, 1], got %r" % (delta,))
    raw = i * (1.0 - delta) + delta * (n - i + 1)
    return np.clip(np.floor(raw + 0.5), 1, n).astype(np.int64)


def assigned_frequencies(spec: WorkloadSpec) -> np.ndarray:
    """Insertion-time frequencies: key i receives base[adversarial_rank(i)].

    Queries always use the true-rank base distribution; only insertion
    estimates are corrupted.  Rounding collisions can push the sum past 1,
    in which case the vector is renormalized.
    """
    base = spec.base_frequencies()
    assigned = base[_adversarial_ranks(np.arange(1, spec.n + 1), spec.n, spec.delta) - 1]
    total = assigned.sum()
    if total > 1.0 + 1e-6:
        assigned = assigned / total
    return assigned


def sample_queries(frequencies: np.ndarray, count: int, seed: int) -> np.ndarray:
    """``count`` i.i.d. 1-based key draws via inverse-CDF on a seeded stream."""
    f = np.asarray(frequencies, dtype=float)
    # a nan fails every comparison, so it must be refused explicitly
    if (f.ndim != 1 or f.size == 0 or not np.isfinite(f).all() or (f < 0).any()
            or abs(f.sum() - 1.0) > 1e-9):
        raise ValueError("frequencies must be a distribution summing to 1")
    cdf = np.cumsum(f)
    cdf[-1] = 1.0
    rng = np.random.default_rng(seed)
    u = rng.random(count)
    return np.searchsorted(cdf, u, side="right") + 1
