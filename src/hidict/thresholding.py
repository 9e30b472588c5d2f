"""Threshold frequency scheme: f' = max(f/2, 1/(2*capacity)).

Rewriting frequencies this way keeps the weight sum at or below 1 whenever
the raw frequencies do, preserves O(log 1/f) retrieval for well-predicted
keys, and floors every weight so no key can be pushed deeper than
O(log capacity) by an adversarial estimate.  ``ThresholdedDict`` is a
zip-zip tree that draws its ranks at these weights for a cutoff N, its
capacity; ``dynamics.DynamicThresholdDict`` moves N with the dict's size.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import CapacityError, MissingKeyError
from .structures import ZipZipTree, _PrecedenceTree, _weight_level, zz_rerank


def threshold(f: float, capacity: int) -> float:
    """Thresholded frequency for one key; ``capacity`` is an int >= 1."""
    if not 0.0 <= f <= 1.0:
        raise ValueError("frequency must be in [0, 1], got %r" % (f,))
    # inline, not _valid_cutoff: this runs on every insert and fingerprinted node
    if type(capacity) is not int or capacity < 1:
        raise ValueError("capacity must be an int >= 1, got %r" % (capacity,))
    # not max(): its call doubles the cost per key of rebuilds and fingerprints
    half, floor = f / 2.0, 1.0 / (2.0 * capacity)
    return half if half > floor else floor


def threshold_array(f: np.ndarray, capacity: int) -> np.ndarray:
    """Vectorized threshold over a frequency vector."""
    f = np.asarray(f, dtype=float)
    if type(capacity) is not int or capacity < 1:
        raise ValueError("capacity must be an int >= 1, got %r" % (capacity,))
    if f.size and (f.min() < 0.0 or f.max() > 1.0):
        raise ValueError("frequencies must be in [0, 1]")
    return np.maximum(f / 2.0, 1.0 / (2.0 * capacity))


def _valid_cutoff(N) -> int:
    """N itself when it is a valid cutoff: exactly an int, at least 1."""
    if type(N) is not int or N < 1:
        raise ValueError("cutoff must be an int >= 1, got %r" % (N,))
    return N


class ThresholdedDict(ZipZipTree):
    """Biased zip-zip tree whose ranks are drawn at thresholded frequencies.

    A node's ``weight`` holds its key's raw frequency f and its rank is
    drawn at ``threshold(f, N)``.  Here ``N`` is the capacity: an insert
    that would hold more than N keys is taken back out.  ``rebuild`` moves
    every rank to a new N.  The tree is the dict's whole per-key state.
    Reads and ``delete`` are the tree's own; updates call the engine by
    class (``_PrecedenceTree.insert(self, ...)``): on CPython 3.11 a
    zero-argument ``super()`` call made deletes about 8% slower.
    """

    def __init__(self, seed: int, capacity: int):
        ZipZipTree.__init__(self, seed)
        self.N = _valid_cutoff(capacity)

    def _rank(self, key, f):
        return ZipZipTree._rank(self, key, threshold(f, self.N))

    def _drawn_floor(self):
        return threshold(0.0, self.N)

    def rebuild(self, N: int):
        """Re-threshold every key at a new cutoff N in O(n).  An N below the
        size raises ``CapacityError`` and changes nothing: N >= n always, here
        and in ``DynamicThresholdDict``, as the weight-sum bound needs.

        A rank's weight level is ``max(level(f/2), level(1/(2N)))``, so a
        rebuild that keeps the floor level of ``1/(2N)`` moves no rank and
        only sets N.  Otherwise the tree's own nodes are relinked in key
        order: keys above both floors keep their ranks, keys below both
        shift by the change of floor level, and only those in between go
        through ``zz_rerank``.  A rebuild hashes no key and allocates no
        node; the result equals a fresh build at N.
        """
        if _valid_cutoff(N) < self._n:
            raise CapacityError("cutoff %d is below the size %d" % (N, self._n))
        old, self.N = self.N, N
        was = _weight_level(threshold(0.0, old))
        now = _weight_level(threshold(0.0, N))
        if was == now:
            return
        # f >= top iff f/2 >= 2**max(was, now); f < bottom iff f/2 < 2**min
        top = 2.0 ** (max(was, now) + 1)
        bottom = 2.0 ** (min(was, now) + 1)
        # the rank change of a key below both floors: that of the floor weight
        shift = zz_rerank(0, threshold(0.0, old), threshold(0.0, N))
        nodes = list(self._inorder())
        for node in nodes:
            f = node.weight
            if f < bottom:
                node.rank += shift
            elif f < top:
                node.rank = zz_rerank(node.rank, threshold(f, old), threshold(f, N))
        self._link_sorted(nodes)

    def insert(self, key, f: float = 0.0, payload: Optional[bytes] = None):
        # the tree rejects a bad f or key before the capacity is checked
        _PrecedenceTree.insert(self, key, f, payload)
        if self._n > self.N:
            _PrecedenceTree.delete(self, key)
            raise CapacityError("capacity %d exceeded" % self.N)

    def load_sorted(self, entries):
        # the inherited load checks no capacity, and in a dynamic dict it
        # would skip the scheme step (and its draws) of every insert
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

    def header(self) -> bytes:
        return b"threshold;cap=%d;" % self.N
