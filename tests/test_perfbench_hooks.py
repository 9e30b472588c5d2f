"""The library attributes the benchmark's traced run hooks.

``perfbench/spans.py`` wraps hidict's functions and methods by name, and
reports a name that no longer resolves as absent instead of failing.  A
refactor that renames or inlines one of them would silently drop its
per-layer counts, so these tests pin the names and the rebuild count.
"""

import importlib.util
import math
import random
from pathlib import Path

from hidict.dynamics import CutoffSimulator, DynamicThresholdDict
from hidict.thresholding import threshold


def _spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves():
    spans = _spans()
    absent = [(module, path) for _, module, path, _ in spans.HOOKS
              if spans._resolve(module, path) == (None, None)]
    assert absent == []


def test_rebuild_hook_sees_every_due_rebuild(monkeypatch):
    # dynamics.rebuilds is counted on calls of DynamicThresholdDict.rebuild
    calls = []
    rebuild = DynamicThresholdDict.rebuild

    def counting(self, N):
        calls.append((self.N, N))
        return rebuild(self, N)

    monkeypatch.setattr(DynamicThresholdDict, "rebuild", counting)
    d = DynamicThresholdDict(5, scheme="whi", scheme_seed=6)
    sim = CutoffSimulator("whi", random.Random(6))
    rng = random.Random(7)
    present = set()
    emptied = 0
    for step in range(4000):
        # drift between growth and shrinkage, emptying the dict now and then
        grow = 0.6 if (step // 400) % 2 == 0 else 0.3
        if not present or rng.random() < grow:
            k = rng.randint(1, 10_000)
            if k not in present:
                d.insert(k, rng.random() / 100)
                sim.insert()
                present.add(k)
        else:
            d.delete(present.pop())
            sim.delete()
            emptied += not present
    assert emptied >= 1
    assert len(calls) == sim.rebuilds > 10

    # a rebuild that keeps the floor level of 1/(2N) moves no rank, and
    # it still reaches the hooked method
    def level(N):
        return math.floor(math.log2(threshold(0.0, N)))

    assert any(level(old) == level(new) for old, new in calls)
