"""Paired dictionary: a learned structure and a non-learned fallback in tandem.

Searches try the learned side for a floor(gamma * log2 n) comparison budget
and fall back to the uniform tree, so retrieval is O(min(log 1/f, log n))
regardless of prediction quality.  Neither substructure stores anything that
depends on the operation history, so the pair stays strongly history
independent under dynamic updates without any rebuild schedule.
"""

from __future__ import annotations

import math
from math import log2
from typing import Optional

from .structures import SearchResult, ZipZipTree, _PrecedenceTree
from .thresholding import ThresholdedDict

# gamma presets from the zip-zip height / expected-depth constants
GAMMA_HEIGHT = 3.82
GAMMA_EXPECTED_DEPTH = 1.3863


class PairedDict(ZipZipTree):
    """Tandem (learned, fallback) ordered dictionary.

    The dict is itself the fallback: a uniform zip-zip tree on separate
    oracle streams, whose reads (``predecessor``, ``range_query``, ``keys``,
    ``in``, ``len``) are the tree's own.  ``learned`` holds the same keys:
    with ``capacity`` set, a threshold-wrapped biased zip-zip tree;
    otherwise a plain biased zip-zip tree using the raw frequency estimates
    as weights.  The fallback's own steps call the engine by class
    (``_PrecedenceTree.insert(self, ...)``); the other inherited tree
    methods, ``search_budgeted`` among them, see the fallback side only.
    ``check_invariants`` checks both sides and that they hold the same keys.
    """

    kind = "zipzip+8"
    _stream = 8

    def __init__(self, seed: int, gamma: float = 1.0, capacity: Optional[int] = None):
        # the comparisons also reject nan
        if not 0 < gamma < math.inf:
            raise ValueError("gamma must be positive and finite, got %r" % (gamma,))
        super().__init__(seed)
        self.gamma = gamma
        self.capacity = capacity
        if capacity is not None:
            self.learned = ThresholdedDict(seed, capacity)
        else:
            self.learned = ZipZipTree(seed)

    def insert(self, key, f: float, payload: Optional[bytes] = None):
        if f <= 0:
            # every paired key needs a frequency estimate
            raise ValueError("paired insert requires f > 0, got %r" % (f,))
        self.learned.insert(key, f, payload)
        try:
            _PrecedenceTree.insert(self, key, 1.0, payload)
        except Exception:
            self.learned.delete(key)  # keep the tandem invariant on failure
            raise

    def delete(self, key):
        self.learned.delete(key)
        _PrecedenceTree.delete(self, key)

    def load_sorted(self, entries):
        # the inherited load would fill the fallback side alone
        raise TypeError("a paired dict is filled by insert, not load_sorted")

    def check_invariants(self):
        _PrecedenceTree.check_invariants(self)
        self.learned.check_invariants()
        # the fingerprint's shared payload digest rests on this
        assert self.learned.items() == self.items()

    def search_budget(self) -> int:
        # int() is floor for the positive product; not max() or floor():
        # their calls cost more than the first levels of the search.  The
        # size is read, never cached: a cache would record past searches
        n = self._n
        budget = int(self.gamma * log2(n if n > 2 else 2))
        return budget if budget > 1 else 1

    def search(self, key) -> SearchResult:
        # an empty pair ends here too: the learned descent concludes at
        # once with 0 comparisons
        budget = self.search_budget()
        res, exhausted = self.learned.search_budgeted(key, budget)
        if res.found:
            return res
        if not exhausted:
            # descent concluded (key absent) within budget; the tandem
            # invariant makes the fallback search redundant
            return res
        fb = _PrecedenceTree.search(self, key)
        return SearchResult(fb.found, res.comparisons + fb.comparisons, fb.payload)

    def node_count(self) -> int:
        # 2n structural nodes; payloads may be shared but nodes are not
        return self.learned.node_count() + self._n

    def fingerprint(self) -> bytes:
        """The learned side's fingerprint, then the fallback's.  The tandem
        invariant gives both sides the same key/payload sequence, so the
        fallback reuses the payload digest that ends the learned side's."""
        cap = -1 if self.capacity is None else self.capacity
        head = b"paired;gamma=%s;cap=%d;" % (repr(self.gamma).encode(), cap)
        learned = self.learned.fingerprint()
        fallback = _PrecedenceTree.fingerprint(self, learned[-32:])  # its sha256
        return head + learned + b"|" + fallback
