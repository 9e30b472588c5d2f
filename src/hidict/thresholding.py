"""Threshold frequency scheme: f' = max(f/2, 1/(2*capacity)).

Rewriting frequencies this way keeps the weight sum at or below 1 whenever
the raw frequencies do, preserves O(log 1/f) retrieval for well-predicted
keys, and floors every weight so no key can be pushed deeper than
O(log capacity) by an adversarial estimate.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import CapacityError, MissingKeyError
from .structures import ZipZipTree, _PrecedenceTree, zz_rerank


def threshold(f: float, capacity: int) -> float:
    """Thresholded frequency for one key."""
    if not 0.0 <= f <= 1.0:
        raise ValueError("frequency must be in [0, 1], got %r" % (f,))
    if capacity < 1:
        raise ValueError("capacity must be >= 1, got %r" % (capacity,))
    # not max(): its call doubles the cost per key of rebuilds and fingerprints
    half, floor = f / 2.0, 1.0 / (2.0 * capacity)
    return half if half > floor else floor


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
    """Biased zip-zip tree whose ranks are drawn at thresholded frequencies.

    A node's ``weight`` holds its key's raw frequency f and its rank is
    drawn at ``threshold(f, N)``; ``rebuild`` moves ``N`` to the policy's
    cutoff, fixed at ``capacity`` here, dynamic in ``DynamicThresholdDict``.
    The tree is the dict's whole per-key state.  Reads are the tree's own.
    Updates call the engine by class (``_PrecedenceTree.insert(self, ...)``):
    on CPython 3.11 a zero-argument ``super()`` call made deletes about 8%
    slower.
    """

    def __init__(self, seed: int, capacity: int):
        self._attach(seed, FixedCutoff(capacity))

    def _attach(self, seed: int, policy):
        ZipZipTree.__init__(self, seed)
        self.policy = policy
        self.N = policy.N

    @property
    def n(self) -> int:
        return self._n

    def _rank(self, key, f):
        return ZipZipTree._rank(self, key, threshold(f, self.N))

    def _drawn_weight(self, f):
        return threshold(f, self.N)

    def rebuild(self, N: int):
        """Re-threshold every key at cutoff N and relink the tree in O(n).

        The tree's own nodes are relinked in key order with their ranks
        moved from the old cutoff's weights to N's, so a rebuild hashes no
        key and allocates no node; the result equals a fresh build at N.
        """
        old = self.N
        nodes = list(self._inorder())
        for node in nodes:
            f = node.weight
            node.rank = zz_rerank(node.rank, threshold(f, old), threshold(f, N))
        self.N = self.policy.N = N
        self._link_sorted(nodes)

    def insert(self, key, f: float = 0.0, payload: Optional[bytes] = None):
        # _rank validates f, and the tree the key, before the policy changes
        _PrecedenceTree.insert(self, key, f, payload)
        try:
            rebuild_due = self.policy.insert()
        except CapacityError:
            _PrecedenceTree.delete(self, key)
            raise
        # the shape depends only on the (key, weight) set, so a rebuild
        # applied after the insert equals one applied before it
        if rebuild_due:
            self.rebuild(self.policy.N)

    def delete(self, key):
        _PrecedenceTree.delete(self, key)
        if self.policy.delete():
            self.rebuild(self.policy.N)
        elif not self._n:  # an emptied dynamic policy resets N, no rebuild due
            self.N = self.policy.N

    def load_sorted(self, entries):
        # ranks and rebuilds follow the cutoff policy, which
        # counts (and, when dynamic, draws) per insert
        raise TypeError("a thresholded dict is filled by insert, not load_sorted")

    def raw_frequency(self, key) -> float:
        cur = self._root
        while cur is not None:
            if key == cur.key:
                return cur.weight
            cur = cur.left if key < cur.key else cur.right
        raise MissingKeyError(key)

    def stored_weight_sum(self) -> float:
        # in key order, so the float depends on the contents alone
        return sum(threshold(node.weight, self.N) for node in self._inorder())

    def fingerprint(self) -> bytes:
        return self.policy.header() + _PrecedenceTree.fingerprint(self)
