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


def test_fingerprint_hook_sees_both_sides_of_a_paired_dict():
    # structures.fingerprint times every precedence tree's fingerprint; a
    # paired dict's is its two sides', one span each
    from hidict.pairing import PairedDict
    from hidict.structures import ZipZipTree

    spans = _spans()
    for capacity in (None, 8):
        d = PairedDict(3, capacity=capacity)
        for k in range(5):
            d.insert(k, 0.1 * (k + 1), b"p%d" % k)
        plain = d.fingerprint()
        tracer = spans.Tracer()
        with spans.Hooks(tracer):
            assert d.fingerprint() == plain
        names = [span[3] for span in tracer.spans]
        assert names.count("structures.fingerprint") == 2, names
    t = ZipZipTree(3)
    t.insert(1)
    tracer = spans.Tracer()
    with spans.Hooks(tracer):
        t.fingerprint()
    assert [span[3] for span in tracer.spans].count("structures.fingerprint") == 1


def test_whi_hook_counts_the_samples_of_verify_whi(monkeypatch, capsys):
    # hiverify.whi_samples reads whi_check's strategies (its fourth
    # positional argument) and the report's trials
    from hidict import hiverify
    from hidict.cli import main

    spans = _spans()
    monkeypatch.setattr(hiverify, "_usable_cores", lambda: 1)
    samples = 120
    argv = ["verify", "whi", "--n-list", "6,3", "--samples", str(samples), "--seed", "2"]
    plain = main(argv), capsys.readouterr().out
    tracer = spans.Tracer()
    with spans.Hooks(tracer) as hooks:
        traced = main(argv), capsys.readouterr().out
    assert hooks.absent == []
    assert traced == plain
    assert "RESULT verify-whi" in plain[1]
    assert tracer.events["hiverify.whi_samples"] == samples * 3
