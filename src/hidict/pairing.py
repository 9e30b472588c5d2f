"""Paired dictionary: a learned structure and a non-learned fallback in tandem.

A search walks the learned side from its root for a floor(gamma * log2 n)
comparison budget and then the uniform tree from its root, so retrieval is
O(min(log 1/f, log n)) regardless of prediction quality.  Neither
substructure stores anything that depends on the operation history, so the
pair stays strongly history independent under dynamic updates without any
rebuild schedule.
"""

from __future__ import annotations

import sys
from math import floor, log2
from typing import Optional

import numpy as np

from .core import show_value
from .structures import SearchResult, ZipZipTree, _BST, _PrecedenceTree, _blank
from .thresholding import ThresholdedDict

# gamma presets from the zip-zip height / expected-depth constants
GAMMA_HEIGHT = 3.82
GAMMA_EXPECTED_DEPTH = 1.3863
# the largest gamma: log2 of any size a tree holds is below 64, so the
# budget's gamma * log2(n) is a double
_GAMMA_MAX = sys.float_info.max / 64


class PairedDict(ZipZipTree):
    """Tandem (learned, fallback) ordered dictionary.

    The dict is itself the fallback: a uniform zip-zip tree on separate
    oracle streams, whose reads (``predecessor``, ``range_query``, ``keys``,
    ``len``) are the tree's own; ``in`` runs the paired ``search``.
    ``learned`` holds the same keys: a threshold-wrapped biased zip-zip
    tree with ``capacity`` set, which takes any f in [0, 1], else a biased
    zip-zip tree weighted by the raw frequency estimates, which takes any
    positive finite f.  An insert goes to the learned side first, so an
    estimate it cannot rank is refused before either side changes.
    ``search`` walks both sides from their roots in its own frame.  The
    fallback's own steps call the engine by class
    (``_PrecedenceTree.insert(self, ...)``); the other inherited methods,
    ``search_budgeted`` among them, see the fallback side only.
    ``check_invariants`` checks both sides and that they hold the same keys.
    """

    kind = "zipzip+8"
    _stream = 8

    def __init__(self, seed: int, gamma: float = 1.0, capacity: Optional[int] = None):
        # the comparisons also reject nan; a bool is no gamma, as it is no cutoff
        if isinstance(gamma, (bool, np.bool_)) or not 0 < gamma <= _GAMMA_MAX:
            raise ValueError("gamma must be positive and at most max double / 64, got %s"
                             % show_value(gamma))
        super().__init__(seed)
        # the fingerprint prints the double, not the type that spelled it;
        # gamma * log2(n) multiplies as a double, so no budget moves
        self.gamma = float(gamma)
        self.capacity = capacity
        if capacity is not None:
            self.learned = ThresholdedDict(seed, capacity)
        else:
            self.learned = ZipZipTree(seed)

    def insert(self, key, f: float, payload: Optional[bytes] = None):
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
        # floor() equals int() here at half its cost (CPython 3.11); max()
        # costs more than the first levels of the search.  The size is read,
        # never cached: a cache would record past searches
        n = self._n
        budget = floor(self.gamma * log2(n if n > 2 else 2))
        return budget if budget > 1 else 1

    def search(self, key) -> SearchResult:
        """The learned side's root walk for up to ``search_budget()``
        comparisons, then, if the budget runs out first, the fallback's
        root walk, counting on from the budget: each side's time grows with
        the comparisons it reports.  The one reply equals
        ``search_budgeted`` on the learned side, then ``_BST.search`` on
        the fallback."""
        budget = self.search_budget()
        res = _blank(SearchResult)
        comps, cur = 0, self.learned._root
        # an empty pair ends here too, with 0 comparisons
        while cur is not None and comps < budget:
            comps += 1
            if key == cur.key:
                res.found, res.comparisons, res.payload = True, comps, cur.payload
                return res
            cur = cur.left if key < cur.key else cur.right
        # a walk that ended within the budget ends the search: the tandem
        # invariant makes the key absent from the fallback too
        if cur is not None:  # the budget ran out
            cur = self._root
        while cur is not None:
            comps += 1
            if key == cur.key:
                res.found, res.comparisons, res.payload = True, comps, cur.payload
                return res
            cur = cur.left if key < cur.key else cur.right
        res.found, res.comparisons, res.payload = False, comps, None
        return res

    def search_costs(self) -> dict:
        """``{key: search(key).comparisons}`` for every held key: its
        learned depth within the budget, else the budget plus its
        fallback depth."""
        budget = self.search_budget()
        fallback = _BST.search_costs(self)
        return {key: depth if depth <= budget else budget + fallback[key]
                for key, depth in self.learned.search_costs().items()}

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
