"""Threshold frequency scheme: f' = max(f/2, 1/(2*capacity)).

Rewriting frequencies this way keeps the weight sum at or below 1 whenever
the raw frequencies do, preserves O(log 1/f) retrieval for well-predicted
keys, and floors every weight so no key can be pushed deeper than
O(log capacity) by an adversarial estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import CapacityError, DuplicateKeyError, MissingKeyError
from .structures import SearchResult, ZipZipTree


def threshold(f: float, capacity: int) -> float:
    """Thresholded frequency for one key."""
    if not 0.0 <= f <= 1.0:
        raise ValueError("frequency must be in [0, 1], got %r" % (f,))
    if capacity < 1:
        raise ValueError("capacity must be >= 1, got %r" % (capacity,))
    return max(f / 2.0, 1.0 / (2.0 * capacity))


def threshold_array(f: np.ndarray, capacity: int) -> np.ndarray:
    """Vectorized threshold over a frequency vector."""
    f = np.asarray(f, dtype=float)
    if capacity < 1:
        raise ValueError("capacity must be >= 1, got %r" % (capacity,))
    if f.size and (f.min() < 0.0 or f.max() > 1.0):
        raise ValueError("frequencies must be in [0, 1]")
    return np.maximum(f / 2.0, 1.0 / (2.0 * capacity))


@dataclass
class CutoffState:
    n: int
    N: int


class FixedCutoff:
    """Cutoff policy of a static-capacity dict: N never moves.

    Exposes the cutoff-policy interface: ``n``, ``N``, ``insert()`` and
    ``delete()`` (each returns True when a rebuild at ``N`` is due), and the
    fingerprint ``header()``.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1, got %r" % (capacity,))
        self.n = 0
        self.N = capacity

    def insert(self) -> bool:
        if self.n >= self.N:
            raise CapacityError("capacity %d exceeded" % self.N)
        self.n += 1
        return False

    def delete(self) -> bool:
        self.n -= 1
        return False

    def header(self) -> bytes:
        return b"threshold;cap=%d;" % self.N


class ThresholdedDict:
    """Threshold wrapper around a biased zip-zip tree.

    Every stored weight is ``threshold(f, N)`` for the cutoff N of the
    policy: fixed at ``capacity`` here, dynamic in ``DynamicThresholdDict``.
    Raw frequencies are kept alongside entries, so a rebuild at a new N
    re-thresholds losslessly; the tree supplies the (key, payload) pairs.
    """

    kind = "threshold-zipzip"

    def __init__(self, seed: int, capacity: int):
        self._attach(seed, FixedCutoff(capacity))

    def _attach(self, seed: int, policy):
        self.seed = seed
        self.policy = policy
        self._freqs = {}
        self._tree = ZipZipTree(seed)

    @property
    def N(self) -> int:
        return self.policy.N

    capacity = cutoff = N  # the names callers use for the cutoff

    @property
    def n(self) -> int:
        return len(self._freqs)

    def state(self) -> CutoffState:
        return CutoffState(self.n, self.N)

    def rebuild(self, N: int):
        """Rebuild from scratch in key order, re-thresholded at cutoff N."""
        self.policy.N = N
        tree = ZipZipTree(self.seed)
        for key, payload in self._tree.items():
            tree.insert(key, threshold(self._freqs[key], N), payload)
        self._tree = tree

    def insert(self, key, f: float = 0.0, payload: Optional[bytes] = None):
        if key in self._freqs:
            raise DuplicateKeyError(key)
        # threshold() validates f before the tree or the policy changes
        self._tree.insert(key, threshold(f, self.N), payload)
        try:
            rebuild_due = self.policy.insert()
        except CapacityError:
            self._tree.delete(key)
            raise
        self._freqs[key] = f
        # the shape depends only on the (key, weight) set, so a rebuild
        # applied after the insert equals one applied before it
        if rebuild_due:
            self.rebuild(self.N)

    def delete(self, key):
        if key not in self._freqs:
            raise MissingKeyError(key)
        self._tree.delete(key)
        del self._freqs[key]
        if self.policy.delete():
            self.rebuild(self.N)

    def search(self, key) -> SearchResult:
        return self._tree.search(key)

    def search_budgeted(self, key, budget: int):
        return self._tree.search_budgeted(key, budget)

    def predecessor(self, key):
        return self._tree.predecessor(key)

    def range_query(self, lo, hi, tally=None):
        return self._tree.range_query(lo, hi, tally)

    def keys(self):
        return self._tree.keys()

    def __iter__(self):
        return iter(self._tree)

    def __contains__(self, key):
        return key in self._freqs

    def __len__(self):
        return len(self._freqs)

    def node_count(self) -> int:
        return self._tree.node_count()

    def raw_frequency(self, key) -> float:
        return self._freqs[key]

    def stored_weight_sum(self) -> float:
        return sum(threshold(f, self.N) for f in self._freqs.values())

    def fingerprint(self) -> bytes:
        return self.policy.header() + self._tree.fingerprint()
