"""Threshold frequency scheme: f' = max(f/2, 1/(2*capacity)).

Rewriting frequencies this way keeps the weight sum at or below 1 whenever
the raw frequencies do, preserves O(log 1/f) retrieval for well-predicted
keys, and floors every weight so no key can be pushed deeper than
O(log capacity) by an adversarial estimate.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import CapacityError
from .structures import ZipZipTree, _PrecedenceTree, zz_rerank


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


class ThresholdedDict(ZipZipTree):
    """Biased zip-zip tree whose stored weights are thresholded frequencies.

    Every stored weight is ``threshold(f, N)`` for the cutoff N of the
    policy: fixed at ``capacity`` here, dynamic in ``DynamicThresholdDict``.
    Reads are the tree's own.  Raw frequencies are kept alongside entries,
    so a rebuild at a new N re-thresholds losslessly.  Updates call the
    engine by class (``_PrecedenceTree.insert(self, ...)``): on CPython 3.11
    a zero-argument ``super()`` call made deletes about 8% slower.
    """

    def __init__(self, seed: int, capacity: int):
        self._attach(seed, FixedCutoff(capacity))

    def _attach(self, seed: int, policy):
        ZipZipTree.__init__(self, seed)
        self.policy = policy
        self._freqs = {}

    @property
    def N(self) -> int:
        return self.policy.N

    @property
    def n(self) -> int:
        return self._n

    def rebuild(self, N: int):
        """Re-threshold every key at cutoff N and relink the tree in O(n).

        The tree's own nodes are relinked in key order with their ranks
        moved to the new weights, so a rebuild hashes no key and allocates
        no node; the result equals a fresh build at N.
        """
        self.policy.N = N
        nodes = list(self._inorder())
        freqs = self._freqs
        for node in nodes:
            weight = threshold(freqs[node.key], N)
            node.rank = zz_rerank(node.rank, node.weight, weight)
            node.weight = weight
        self._link_sorted(nodes)

    def insert(self, key, f: float = 0.0, payload: Optional[bytes] = None):
        # threshold() validates f, and the tree the key, before the policy
        # changes
        _PrecedenceTree.insert(self, key, threshold(f, self.N), payload)
        try:
            rebuild_due = self.policy.insert()
        except CapacityError:
            _PrecedenceTree.delete(self, key)
            raise
        self._freqs[key] = f
        # the shape depends only on the (key, weight) set, so a rebuild
        # applied after the insert equals one applied before it
        if rebuild_due:
            self.rebuild(self.N)

    def delete(self, key):
        _PrecedenceTree.delete(self, key)
        del self._freqs[key]
        if self.policy.delete():
            self.rebuild(self.N)

    def load_sorted(self, entries):
        # stored weights and rebuilds follow the cutoff policy, which
        # counts (and, when dynamic, draws) per insert
        raise TypeError("a thresholded dict is filled by insert, not load_sorted")

    def raw_frequency(self, key) -> float:
        return self._freqs[key]

    def stored_weight_sum(self) -> float:
        return sum(threshold(f, self.N) for f in self._freqs.values())

    def fingerprint(self) -> bytes:
        return self.policy.header() + _PrecedenceTree.fingerprint(self)
