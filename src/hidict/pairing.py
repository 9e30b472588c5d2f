"""Paired dictionary: a learned structure and a non-learned fallback in tandem.

Searches try the learned side for a floor(gamma * log2 n) comparison budget
and fall back to the uniform tree, so retrieval is O(min(log 1/f, log n))
regardless of prediction quality.  Neither substructure stores anything that
depends on the operation history, so the pair stays strongly history
independent under dynamic updates without any rebuild schedule.
"""

from __future__ import annotations

import math
from typing import Optional

from .structures import SearchResult, ZipZipTree
from .thresholding import ThresholdedDict

# gamma presets from the zip-zip height / expected-depth constants
GAMMA_HEIGHT = 3.82
GAMMA_EXPECTED_DEPTH = 1.3863


class PairedDict:
    """Tandem (learned, fallback) ordered dictionary.

    With ``capacity`` set, the learned side is a threshold-wrapped biased
    zip-zip tree; otherwise it is a plain biased zip-zip tree using the raw
    frequency estimates as weights.  The fallback is always a uniform
    zip-zip tree on separate oracle streams.
    """

    def __init__(self, seed: int, gamma: float = 1.0, capacity: Optional[int] = None):
        if gamma <= 0:
            raise ValueError("gamma must be positive, got %r" % (gamma,))
        self.seed = seed
        self.gamma = gamma
        self.capacity = capacity
        if capacity is not None:
            self.learned = ThresholdedDict(seed, capacity)
        else:
            self.learned = ZipZipTree(seed)
        self.fallback = ZipZipTree(seed, stream_base=8)

    def insert(self, key, f: float, payload: Optional[bytes] = None):
        if f <= 0:
            # every paired key needs a frequency estimate
            raise ValueError("paired insert requires f > 0, got %r" % (f,))
        self.learned.insert(key, f, payload)
        try:
            self.fallback.insert(key, 1.0, payload)
        except Exception:
            self.learned.delete(key)  # keep the tandem invariant on failure
            raise

    def delete(self, key):
        self.learned.delete(key)
        self.fallback.delete(key)

    def search_budget(self) -> int:
        return max(1, math.floor(self.gamma * math.log2(max(len(self.fallback), 2))))

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
        fb = self.fallback.search(key)
        return SearchResult(fb.found, res.comparisons + fb.comparisons, fb.payload)

    def predecessor(self, key):
        return self.fallback.predecessor(key)

    def range_query(self, lo, hi, tally=None):
        return self.fallback.range_query(lo, hi, tally)

    def keys(self):
        return self.fallback.keys()

    def __iter__(self):
        return iter(self.fallback)

    def __contains__(self, key):
        return key in self.fallback

    def __len__(self):
        return len(self.fallback)

    def node_count(self) -> int:
        # 2n structural nodes; payloads may be shared but nodes are not
        return self.learned.node_count() + self.fallback.node_count()

    def fingerprint(self) -> bytes:
        cap = -1 if self.capacity is None else self.capacity
        head = b"paired;gamma=%s;cap=%d;" % (repr(self.gamma).encode(), cap)
        return head + self.learned.fingerprint() + b"|" + self.fallback.fingerprint()
