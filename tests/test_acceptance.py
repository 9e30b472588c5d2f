"""End-to-end acceptance suite.

Each test prints exactly one PASS/FAIL summary line (straight to the
terminal, bypassing capture) and then asserts, so a red test still leaves
its measurements on record.
"""

import random

import numpy as np
import pytest

from hidict.bench import (
    run_inverse_power,
    run_noisy_zipf,
    run_size,
    run_zipf_param,
    mean_avg_comparisons,
)
from hidict.dynamics import CutoffSimulator, counterexample_structures
from hidict.hiverify import (
    amortized_counterexample_check,
    growth_strategy,
    shi_check,
    whi_check,
)
from hidict.pairing import PairedDict
from hidict.structures import ZipZipTree
from hidict.thresholding import ThresholdedDict, threshold_array


def report(capsys, num, name, ok, detail=""):
    with capsys.disabled():
        print("ACCEPTANCE %2d %-24s %s  %s"
              % (num, name, "PASS" if ok else "FAIL", detail))


def test_01_threshold_weight_sum(capsys):
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(1, 2001))
        f = rng.random(n)
        total = f.sum()
        if total > 1.0:
            f /= total
        worst = max(worst, float(threshold_array(f, n).sum()))
    ok = worst <= 1.0 + 1e-9
    report(capsys, 1, "threshold-weight-sum", ok, "max sum %.12f" % worst)
    assert ok


def test_02_strong_hi(capsys):
    factories = {
        "zipzip": lambda: ZipZipTree(17),
        "threshold": lambda: ThresholdedDict(17, capacity=256),
        "paired": lambda: PairedDict(17, capacity=256),
    }
    mismatches = {}
    for name, factory in factories.items():
        ex = shi_check(factory, universe_size=6, trials=0)
        rnd = shi_check(factory, universe_size=128, trials=1000, seed=17)
        mismatches[name] = ex.mismatches + rnd.mismatches
    neg = amortized_counterexample_check()
    ok = all(m == 0 for m in mismatches.values()) and neg.mismatches >= 1
    report(capsys, 2, "strong-hi", ok,
           "mismatches %s, negative control %d" % (mismatches, neg.mismatches))
    assert ok


def test_03_weak_hi(capsys):
    factory = lambda s: CutoffSimulator("whi", random.Random(s))
    tvs = {}
    for n in (5, 16, 33):
        rep = whi_check(factory, n, 10_000,
                        [growth_strategy(n), growth_strategy(n, 1),
                         growth_strategy(n, 3)], seed=n)
        tvs[n] = rep.tv_distance

    def grow_shrink(obj):
        for k in range(1, 5):
            obj.insert(k)
        obj.delete(4)

    def straight(obj):
        for k in range(1, 4):
            obj.insert(k)

    control = whi_check(lambda s: CutoffSimulator("amortized", random.Random(s)),
                        3, 200, [grow_shrink, straight])
    ok = all(tv <= 0.05 for tv in tvs.values()) and control.tv_distance == 1.0
    report(capsys, 3, "weak-hi", ok,
           "tv %s, amortized control %.2f"
           % ({n: round(tv, 4) for n, tv in tvs.items()}, control.tv_distance))
    assert ok


def test_04_whi_rebuild_rate(capsys):
    sim = CutoffSimulator("whi", random.Random(1))
    for _ in range(1000):
        sim.insert()
    sim.rebuilds = sim.operations = 0
    rng = random.Random(2)
    for _ in range(100_000):
        if sim.n <= 950 or (sim.n < 1050 and rng.random() < 0.5):
            sim.insert()
        else:
            sim.delete()
    rate = sim.rebuilds / sim.operations
    ok = rate <= 0.005
    report(capsys, 4, "whi-rebuild-rate", ok, "rate %.5f over 1e5 ops" % rate)
    assert ok


def test_05_amortized_counterexample(capsys):
    x, y = counterexample_structures()
    ok = (sorted(x.keys()) == sorted(y.keys())
          and (x.n, x.N) == (3, 16) and (y.n, y.N) == (3, 4))
    report(capsys, 5, "counterexample", ok,
           "X (n=%d,N=%d) vs Y (n=%d,N=%d)" % (x.n, x.N, y.n, y.N))
    assert ok


def test_06_noisy_zipf(capsys):
    rows = run_noisy_zipf(["avl", "threshold-zipzip", "paired-zipzip"],
                          n_values=[2000], alpha=2.0, delta=0.9, trials=10)
    thr = mean_avg_comparisons(rows, "threshold-zipzip")
    avl = mean_avg_comparisons(rows, "avl")
    paired = mean_avg_comparisons(rows, "paired-zipzip")
    ok = thr < 10.0 and thr < avl and paired <= 2.2 * thr
    report(capsys, 6, "noisy-zipf", ok,
           "threshold %.3f, avl %.3f, paired %.3f" % (thr, avl, paired))
    assert ok


def test_07_inverse_power_robustness(capsys):
    structures = ["biased-zipzip", "l-treap", "c-treap",
                  "threshold-zipzip", "paired-zipzip"]
    rows = run_inverse_power(structures, n_values=[250, 2000],
                             alpha=1.01, delta=0.9, trials=10)
    ratios = {
        name: mean_avg_comparisons(rows, name, n=2000)
        / mean_avg_comparisons(rows, name, n=250)
        for name in structures
    }
    non_robust_ok = all(ratios[name] >= 4.0
                        for name in ("biased-zipzip", "l-treap", "c-treap"))
    robust_ok = ratios["threshold-zipzip"] <= 1.6 and ratios["paired-zipzip"] <= 1.8
    ok = non_robust_ok and robust_ok
    report(capsys, 7, "inverse-power", ok,
           "ratios %s" % {k: round(v, 2) for k, v in ratios.items()})
    assert ok


def test_08_zipf_parameter_sweep(capsys):
    learned = ["biased-zipzip", "threshold-zipzip", "paired-zipzip",
               "l-treap", "c-treap"]
    rows = run_zipf_param(learned + ["avl"], alphas=[1.0, 2.0, 3.0],
                          n=2000, trials=10)
    means = {name: [mean_avg_comparisons(rows, name, alpha=a)
                    for a in (1.0, 2.0, 3.0)] for name in learned + ["avl"]}
    monotone = all(m[0] > m[1] > m[2] for name, m in means.items()
                   if name in learned)
    gaps = [means["threshold-zipzip"][i] - means["biased-zipzip"][i]
            for i in range(3)]
    ok = monotone and max(gaps) <= 4.0
    report(capsys, 8, "zipf-parameter", ok,
           "monotone=%s, threshold-vs-biased gaps %s"
           % (monotone, [round(g, 2) for g in gaps]))
    assert ok


def test_09_size(capsys):
    structures = ["avl", "zipzip", "biased-zipzip", "threshold-zipzip",
                  "paired-zipzip", "l-treap", "c-treap"]
    rows = run_size(structures, n_values=[250, 500, 1000, 2000])
    bad = [(r.structure, r.n, r.nodes) for r in rows
           if r.nodes != (2 * r.n if r.structure == "paired-zipzip" else r.n)]
    ok = not bad
    report(capsys, 9, "size", ok, "mismatches %s" % (bad or "none"))
    assert ok


def test_10_unique_representation(capsys):
    rng = random.Random(10)
    mismatches = 0
    for trial in range(1000):
        t = ZipZipTree(trial)
        present = set()
        for _ in range(rng.randint(1, 100)):
            k = rng.randint(1, 64)
            if k in present:
                t.delete(k)
                present.discard(k)
            else:
                t.insert(k)
                present.add(k)
        fresh = ZipZipTree(trial)
        for k in sorted(present):
            fresh.insert(k)
        if t.fingerprint() != fresh.fingerprint():
            mismatches += 1
    ok = mismatches == 0
    report(capsys, 10, "unique-representation", ok,
           "%d/1000 trace mismatches" % mismatches)
    assert ok
