"""Machine-speed reference: a fixed pure-Python tree walk timed during a run.

The shared host this benchmark runs on drifts in speed by tens of percent
over minutes, while one run takes under a minute.  So every end-to-end time
is reported at a nominal machine speed: the measured time, multiplied by
NOMINAL_US over the median time of the reference walk in the same phase of
the same run.  The walk does not touch hidict.  A change to the library moves
the scaled numbers exactly as it moves the raw ones, and a change in host
speed moves the walk as well and cancels out.  The raw times are printed in
the run's summary.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

NOMINAL_US = 300.0  # the walk's time on a quiet 2-core Xeon host
WALKS_AROUND = 8    # walks timed before, and again after, each timed step


class _Node:
    __slots__ = ("key", "left", "right")

    def __init__(self, key):
        self.key = key
        self.left = None
        self.right = None


def _balanced(lo, hi):
    if lo > hi:
        return None
    mid = (lo + hi) // 2
    node = _Node(mid)
    node.left = _balanced(lo, mid - 1)
    node.right = _balanced(mid + 1, hi)
    return node


class Reference:
    """Times BST descents like hidict's, over a 4095-node tree in cache."""

    def __init__(self):
        self._root = _balanced(0, 4094)

    def _walk(self):
        root = self._root
        for key in range(0, 4095, 7):
            cur = root
            while cur is not None:
                if key == cur.key:
                    break
                cur = cur.left if key < cur.key else cur.right

    def sample(self) -> float:
        """Microseconds for one walk (585 searches), after one to warm caches."""
        self._walk()
        t0 = perf_counter_ns()
        self._walk()
        return (perf_counter_ns() - t0) / 1e3

    def around(self, fn):
        """(fn's result, its seconds, the scale factor from walks around it)."""
        walks = [self.sample() for _ in range(WALKS_AROUND)]
        t0 = perf_counter_ns()
        result = fn()
        seconds = (perf_counter_ns() - t0) / 1e9
        walks += [self.sample() for _ in range(WALKS_AROUND)]
        return result, seconds, factor(walks)


def factor(walks) -> float:
    """Multiply a time measured beside these walks by this to scale it."""
    return NOMINAL_US / statistics.median(walks)


class Clock:
    """Runs steps through ``Reference.around``, adding up their seconds."""

    def __init__(self, ref: Reference):
        self.ref = ref
        self.raw = self.scaled = self.last = 0.0

    def __call__(self, fn):
        result, seconds, scale = self.ref.around(fn)
        self.last = seconds
        self.raw += seconds
        self.scaled += seconds * scale
        return result
