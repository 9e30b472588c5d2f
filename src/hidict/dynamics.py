"""Dynamic capacity management for threshold-wrapped structures.

Two cutoff-update schemes drive rebuilds:

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
from .thresholding import ThresholdedDict

AMORTIZED_INITIAL_CUTOFF = 4
WHI_INITIAL_CUTOFF = 1

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


class CutoffSimulator:
    """Dynamic cutoff policy: the amortized or the WHI scheme.

    Scheme decisions depend only on (n, N, randomness), so the policy runs
    on its own as a simulator -- distributional HI tests over the cutoff
    marginal skip tree maintenance entirely -- and ``DynamicThresholdDict``
    drives the same object to decide its rebuilds.  ``insert`` and
    ``delete`` return True when a rebuild at the new ``N`` is due; rebuild
    work is counted as key moves.
    """

    def __init__(self, scheme: str, rng: random.Random):
        if scheme not in ("amortized", "whi"):
            raise ValueError("unknown scheme %r" % (scheme,))
        self.scheme = scheme
        self.rng = rng
        self.n = 0
        self.N = self._initial()
        self.rebuilds = 0
        self.key_moves = 0
        self.operations = 0

    def _initial(self) -> int:
        return AMORTIZED_INITIAL_CUTOFF if self.scheme == "amortized" else WHI_INITIAL_CUTOFF

    def _apply(self, new_N: Optional[int]) -> bool:
        if new_N is None:
            return False
        self.N = new_N
        self.rebuilds += 1
        self.key_moves += self.n
        return True

    def insert(self, key=None, f: float = 0.0) -> bool:
        self.operations += 1
        if self.scheme == "whi":
            due = self._apply(whi_before_insert(self.n, self.N,
                                                self.rng.random(), self.rng.random()))
            self.n += 1
            return due
        self.n += 1
        return self._apply(amortized_after_insert(self.n, self.N))

    def delete(self, key=None) -> bool:
        if self.n == 0:
            raise MissingKeyError("empty")
        self.operations += 1
        self.n -= 1
        if self.n == 0:
            self.N = self._initial()
            return False
        if self.scheme == "whi":
            return self._apply(whi_after_delete(self.n, self.N, self.rng.random()))
        return self._apply(amortized_after_delete(self.n, self.N))

    def header(self) -> bytes:
        return b"dyn;scheme=%s;N=%d;" % (self.scheme.encode(), self.N)


class DynamicThresholdDict(ThresholdedDict):
    """``ThresholdedDict`` whose cutoff N follows a ``CutoffSimulator``.

    A node holds its key's raw f and a rank drawn at max(f/2, 1/(2N)) for
    the current cutoff N; a rebuild moves every rank to the new N and
    relinks the nodes in key order (``ThresholdedDict.rebuild``), so the
    tree, the dict's whole per-key state, is a function of (contents,
    seed, N).  Scheme draws come from ``random.Random(scheme_seed)``.
    """

    def __init__(self, seed: int, scheme: str = "whi", scheme_seed: int = 0):
        self._attach(seed, CutoffSimulator(scheme, random.Random(scheme_seed)))


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
