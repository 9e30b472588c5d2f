"""Dynamic cutoffs.  One scheme step moves the cutoff N as the size n
changes, in a ``DynamicThresholdDict`` (which rebuilds its tree) and in a
``CutoffSimulator`` alike.  The two schemes are:

* the amortized scheme (square N on growth, fourth-root trigger on
  shrink), which is *not* history independent --
  ``counterexample_structures`` builds two operation sequences with equal
  contents but different cutoffs; and
* the randomized weakly history independent scheme, under which the cutoff
  N conditioned on the current size n is uniform on {n, ..., 2n-1} no
  matter how the structure got there, with an O(1/n) per-operation rebuild
  probability.

Scheme randomness is drawn from a dedicated RNG, separate from the
structural seed, so HI tests can replay structure randomness while varying
scheme randomness.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from .core import MissingKeyError
from .structures import ZipZipTree, _PrecedenceTree
from .thresholding import ThresholdedDict

AMORTIZED_INITIAL_CUTOFF = 4
WHI_INITIAL_CUTOFF = 1
_INITIAL_CUTOFF = {"amortized": AMORTIZED_INITIAL_CUTOFF, "whi": WHI_INITIAL_CUTOFF}

# A cutoff rule maps the size n and cutoff N (and, for the WHI scheme,
# uniform draws) to the new cutoff of a due rebuild, or to None.


def amortized_after_insert(n: int, N: int) -> Optional[int]:
    return N * N if n == N else None


def amortized_after_delete(n: int, N: int) -> Optional[int]:
    return round(math.sqrt(N)) if n == round(N ** 0.25) else None


def whi_before_insert(n: int, N: int, u1: float, u2: float) -> Optional[int]:
    """Randomized cutoff decision evaluated strictly before the insert.

    n == 0 is folded into the N == n branch: the admissible range
    {n+1, ..., 2(n+1)-1} degenerates to {1} and there is nothing to
    rebuild anyway.
    """
    if n == 0 or N == n:
        # uniform over {n+1, ..., 2(n+1)-1}, which has n+1 values
        return n + 1 + min(int(u1 * (n + 1)), n)
    # two probability-1/(n+1) branches from disjoint sub-intervals of u2
    p = 1.0 / (n + 1)
    if u2 < p:
        return 2 * n
    if u2 < 2 * p:
        return 2 * n + 1
    return None


def whi_after_delete(n: int, N: int, u: float) -> Optional[int]:
    """Randomized cutoff decision evaluated after the delete (n >= 1)."""
    if n < 1:
        raise ValueError("whi_after_delete requires n >= 1; reset instead")
    if n <= N / 2:
        return n + min(int(u * n), n - 1)
    if u < 1.0 / n:
        return n
    return None


class _CutoffScheme:
    """The amortized or the WHI step of the cutoff N, run after each update
    has moved the size ``_n``; a due step calls ``self.rebuild(new N)``."""

    def __init__(self, scheme: str, rng: random.Random):
        if scheme not in _INITIAL_CUTOFF:
            raise ValueError("unknown scheme %r" % (scheme,))
        self.scheme = scheme
        self.rng = rng
        self.N = _INITIAL_CUTOFF[scheme]

    @property
    def n(self) -> int:
        return self._n

    def _after_insert(self):
        if self.scheme == "whi":  # decided on the size before the insert
            new_N = whi_before_insert(self._n - 1, self.N,
                                      self.rng.random(), self.rng.random())
        else:
            new_N = amortized_after_insert(self._n, self.N)
        if new_N is not None:
            self.rebuild(new_N)

    def _after_delete(self):
        if not self._n:  # an emptied dict resets N, with no draw and no rebuild
            self.N = _INITIAL_CUTOFF[self.scheme]
            return
        if self.scheme == "whi":
            new_N = whi_after_delete(self._n, self.N, self.rng.random())
        else:
            new_N = amortized_after_delete(self._n, self.N)
        if new_N is not None:
            self.rebuild(new_N)

    def header(self) -> bytes:
        return b"dyn;scheme=%s;N=%d;" % (self.scheme.encode(), self.N)


class CutoffSimulator(_CutoffScheme):
    """The scheme step with no tree, so HI tests over the cutoff marginal
    skip tree upkeep; ``rebuilds``, ``operations`` and ``key_moves`` (the
    size at each rebuild) count what a dict with this history would do."""

    def __init__(self, scheme: str, rng: random.Random):
        super().__init__(scheme, rng)
        self._n = 0
        self.rebuilds = 0
        self.key_moves = 0
        self.operations = 0

    def rebuild(self, N: int):
        self.N = N
        self.rebuilds += 1
        self.key_moves += self._n

    def insert(self, key=None, f: float = 0.0):
        self.operations += 1
        self._n += 1
        self._after_insert()

    def delete(self, key=None):
        if self._n == 0:
            raise MissingKeyError("empty")
        self.operations += 1
        self._n -= 1
        self._after_delete()


class DynamicThresholdDict(_CutoffScheme, ThresholdedDict):
    """``ThresholdedDict`` whose cutoff N follows the scheme step.

    A due rebuild moves every rank to the new N and relinks the tree
    (the inherited ``rebuild``), so the tree is a function of
    (contents, seed, N); beside it the dict holds only N, the scheme, its
    RNG, ``random.Random(scheme_seed)``, and the tree's keyed hasher, whose
    state is the seed alone.  The tree rejects a bad f or key before the
    step, so a rejected update draws nothing.
    """

    def __init__(self, seed: int, scheme: str = "whi", scheme_seed: int = 0):
        ZipZipTree.__init__(self, seed)
        _CutoffScheme.__init__(self, scheme, random.Random(scheme_seed))

    def insert(self, key, f: float = 0.0, payload: Optional[bytes] = None):
        # the shape depends only on the (key, weight) set, so a rebuild
        # applied after the insert equals one applied before it
        _PrecedenceTree.insert(self, key, f, payload)
        self._after_insert()

    def delete(self, key):
        _PrecedenceTree.delete(self, key)
        self._after_delete()


def counterexample_structures(seed: int = 0):
    """The amortized scheme's distinguishing pair, from (n=0, N=4), as live
    amortized-scheme dicts.

    X inserts c = N - n = 4 keys and deletes the last; Y inserts c - 1
    keys.  Both end holding {1, 2, 3} but X's insertion crossed n == N,
    squaring the cutoff.
    """
    x = DynamicThresholdDict(seed, scheme="amortized")
    for k in (1, 2, 3, 4):
        x.insert(k, 0.0)
    x.delete(4)
    y = DynamicThresholdDict(seed, scheme="amortized")
    for k in (1, 2, 3):
        y.insert(k, 0.0)
    return x, y
