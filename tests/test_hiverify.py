import random
from collections import Counter

import pytest

import hidict.hiverify
from hidict.dynamics import CutoffSimulator, DynamicThresholdDict
from hidict.hiverify import (
    amortized_counterexample_check,
    growth_strategy,
    shi_check,
    total_variation,
    whi_check,
)
from hidict.structures import AVLTree, ZipZipTree
from hidict.thresholding import ThresholdedDict


def test_fingerprint_trivial_cases():
    assert ZipZipTree(4).fingerprint() == ZipZipTree(4).fingerprint()
    a, b = ZipZipTree(1), ZipZipTree(2)
    a.insert(1)
    b.insert(1)
    assert a.fingerprint() != b.fingerprint()  # seed enters the rank draws


def test_fingerprint_reflects_contents_and_weights():
    a, b = ZipZipTree(1), ZipZipTree(1)
    a.insert(1, 0.5)
    b.insert(1, 0.25)
    assert a.fingerprint() != b.fingerprint()


def test_shi_exhaustive_small_universe():
    report = shi_check(lambda: ZipZipTree(17), universe_size=5, trials=0)
    assert report.mode == "strong"
    assert report.trials == 120  # 5! permutations
    assert report.mismatches == 0 and report.passed


def test_shi_randomized_universe():
    report = shi_check(lambda: ZipZipTree(23), universe_size=40, trials=60, seed=3)
    assert report.trials == 60 and report.mismatches == 0


def test_shi_threshold_wrapper():
    report = shi_check(lambda: ThresholdedDict(9, 80), universe_size=40,
                       trials=40, seed=4)
    assert report.passed


def test_shi_negative_control():
    # the AVL tree's shape depends on the insertion order, so the verifier
    # must flag it, exhaustively and over random histories
    report = shi_check(AVLTree, universe_size=5, trials=0)
    assert report.trials == 120 and report.mismatches == 84 and not report.passed
    report = shi_check(AVLTree, universe_size=40, trials=20, seed=1)
    assert report.mismatches >= 1 and not report.passed


def test_shi_sampled_draw_order_is_pinned():
    # the sampled histories' draws: key set, shuffle, detours, in this
    # order, trial after trial; the AVL control reads how many mismatch
    report = shi_check(AVLTree, universe_size=128, trials=200, seed=0)
    assert report.trials == 200 and report.mismatches == 194


def test_shi_randomized_needs_a_trial():
    # zero trials would pass without building anything
    with pytest.raises(ValueError, match="trials"):
        shi_check(lambda: ZipZipTree(1), universe_size=50, trials=0)
    with pytest.raises(ValueError, match="trials"):
        shi_check(lambda: ZipZipTree(1), universe_size=7, trials=-1)


def test_amortized_counterexample_check(monkeypatch):
    report = amortized_counterexample_check(seed=1)
    assert report.mismatches == 1 and not report.passed

    # the control rests on equal contents: dicts with different keys are
    # an error, not a counted mismatch, under python -O too
    def unequal(seed):
        x, y = DynamicThresholdDict(seed), DynamicThresholdDict(seed)
        x.insert(1, 0.5)
        y.insert(2, 0.5)
        return x, y

    monkeypatch.setattr(hidict.hiverify, "counterexample_structures", unequal)
    with pytest.raises(ValueError, match="different keys"):
        amortized_counterexample_check(seed=1)


def test_total_variation_basics():
    a = Counter({1: 50, 2: 50})
    assert total_variation(a, a, 100) == 0.0
    b = Counter({3: 100})
    assert total_variation(a, b, 100) == 1.0
    c = Counter({1: 100})
    assert total_variation(a, c, 100) == 0.5


def test_whi_check_requires_two_strategies():
    with pytest.raises(ValueError):
        whi_check(lambda s: CutoffSimulator("whi", random.Random(s)), 8, 10,
                  [growth_strategy(8)])


def test_whi_check_rejects_a_strategy_off_target_n():
    # N distributions at different sizes are not comparable; the second
    # strategy overshoots by one key
    with pytest.raises(ValueError):
        whi_check(lambda s: CutoffSimulator("whi", random.Random(s)), 8, 10,
                  [growth_strategy(8), growth_strategy(9)])


def _whi_factory(s):
    return CutoffSimulator("whi", random.Random(s))


@pytest.mark.parametrize("samples", [0, -1])
def test_whi_check_needs_a_sample(samples):
    with pytest.raises(ValueError, match="samples"):
        whi_check(_whi_factory, 8, samples,
                  [growth_strategy(8), growth_strategy(8, 1)])


def test_whi_self_comparison_noise_floor():
    # identical strategy under independent randomness: TV is pure sampling
    # noise, which must sit below 0.02 at 3e4 samples
    report = whi_check(_whi_factory, target_n=16, samples=30_000,
                       strategies=[growth_strategy(16),
                                   growth_strategy(16)], seed=1)
    assert report.mode == "weak"
    assert report.tv_distance <= 0.02


def test_whi_detour_strategies_indistinguishable():
    report = whi_check(_whi_factory, target_n=12, samples=20_000,
                       strategies=[growth_strategy(12),
                                   growth_strategy(12, 4),
                                   growth_strategy(12, 12)], seed=2)
    assert report.tv_distance <= 0.05 and report.passed


def test_amortized_scheme_fails_whi_check():
    # deterministic scheme: each strategy's N distribution is a point mass,
    # and the strategies are built to land on different cutoffs
    def grow_shrink(obj):
        for k in range(1, 5):
            obj.insert(k)
        obj.delete(4)

    def straight(obj):
        for k in range(1, 4):
            obj.insert(k)

    report = whi_check(lambda s: CutoffSimulator("amortized", random.Random(s)),
                       target_n=3, samples=200,
                       strategies=[grow_shrink, straight], seed=0)
    assert report.tv_distance == 1.0 and not report.passed
