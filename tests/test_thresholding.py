import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hidict.core import CapacityError, DuplicateKeyError, MissingKeyError
from hidict.dynamics import DynamicThresholdDict
from hidict.pairing import PairedDict
from hidict.thresholding import ThresholdedDict, threshold, threshold_array
from hidict.workloads import zipf_frequencies


def test_threshold_examples():
    assert threshold(0.5, 4) == 0.25  # max(0.25, 0.125)
    assert threshold(0.0, 1000) == 0.0005  # no-estimate keys get the floor
    assert threshold(0.001, 1000) == 0.0005  # boundary: both arms equal
    assert threshold(1.0, 1) == 0.5


def test_threshold_domain_errors():
    with pytest.raises(ValueError):
        threshold(-0.1, 10)
    with pytest.raises(ValueError):
        threshold(1.1, 10)
    with pytest.raises(ValueError):
        threshold(0.5, 0)


def test_threshold_output_range():
    for f in (0.0, 1e-9, 0.3, 1.0):
        for cap in (1, 7, 2000):
            out = threshold(f, cap)
            assert 0.0 < out <= 0.5


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50))
def test_weight_sum_invariant(fs):
    total = sum(fs)
    if total > 1.0:
        fs = [f / total for f in fs]
    assert sum(threshold(f, len(fs)) for f in fs) <= 1.0 + 1e-9


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(1, 5000),
       st.integers(1, 5000))
def test_threshold_monotone(f1, f2, c1, c2):
    if f1 <= f2:
        assert threshold(f1, c1) <= threshold(f2, c1)
    if c1 <= c2:
        assert threshold(f1, c1) >= threshold(f1, c2)


def test_threshold_array_matches_scalar():
    rng = np.random.default_rng(1)
    f = rng.random(500)
    out = threshold_array(f, 123)
    for i in range(500):
        assert out[i] == threshold(float(f[i]), 123)
    with pytest.raises(ValueError):
        threshold_array(np.array([1.5]), 10)


@pytest.mark.parametrize("bad", [0, -3, 2.5, 2.0, True, np.int64(4)])
def test_threshold_takes_only_an_int_cutoff(bad):
    # the cutoff contract of the dicts: a float or bool cutoff once gave
    # threshold(0.5, 2.5) == 0.25 and threshold(0.5, True) == 0.5
    with pytest.raises(ValueError):
        threshold(0.5, bad)
    with pytest.raises(ValueError):
        threshold_array(np.array([0.5]), bad)


def test_wrap_insert_uniform_raw_frequencies():
    n = 16
    d = ThresholdedDict(0, n)
    for k in range(1, n + 1):
        d.insert(k, 1.0 / n)
    # every stored weight is the floor 1/(2n); sum is 1/2
    assert d.stored_weight_sum() == pytest.approx(0.5)


def test_wrap_insert_single_full_frequency():
    d = ThresholdedDict(0, 10)
    d.insert(1, 1.0)
    assert d.stored_weight_sum() == 0.5


def test_wrap_insert_sum_stays_below_one():
    rng = random.Random(2)
    n = 200
    raw = [rng.random() for _ in range(n)]
    scale = sum(raw)
    d = ThresholdedDict(0, n)
    for k in range(1, n + 1):
        d.insert(k, raw[k - 1] / scale)
    assert d.stored_weight_sum() <= 1.0 + 1e-9


def test_capacity_overflow_is_hard_error():
    d = ThresholdedDict(0, 2)
    d.insert(1, 0.1)
    d.insert(2, 0.1)
    before = d.fingerprint()
    with pytest.raises(CapacityError):
        d.insert(3, 0.1)
    # the key is taken back out of the tree
    assert d.fingerprint() == before
    assert d.keys() == [1, 2] and 3 not in d and len(d) == 2


@pytest.mark.parametrize("bad", [0, -3, 2.5, 2.0, True])
def test_cutoff_is_an_int_at_least_one(bad):
    with pytest.raises(ValueError):
        ThresholdedDict(1, bad)
    with pytest.raises(ValueError):
        PairedDict(1, capacity=bad)
    for make in (lambda: ThresholdedDict(1, 4),
                 lambda: DynamicThresholdDict(1, scheme="whi", scheme_seed=2)):
        for keys in ((), (1, 2, 3)):
            d, twin = make(), make()
            for k in keys:
                d.insert(k, 0.1)
                twin.insert(k, 0.1)
            with pytest.raises(ValueError):
                d.rebuild(bad)
            assert (d.N, d.fingerprint()) == (twin.N, twin.fingerprint())
            # the dict still takes keys at its old cutoff
            d.insert(4, 0.1)
            twin.insert(4, 0.1)
            assert d.fingerprint() == twin.fingerprint()


def test_static_rebuild_below_the_size_is_refused():
    # 8 zero-frequency keys at capacity 8 weigh 8 * 1/16; at N = 2 they
    # would weigh 8 * 1/4, past the weight-sum bound
    d = ThresholdedDict(1, 8)
    for k in range(8):
        d.insert(k, 0.0)
    before = d.fingerprint()
    for N in (7, 2, 1):
        with pytest.raises(CapacityError):
            d.rebuild(N)
        assert (d.N, d.fingerprint(), d.stored_weight_sum()) == (8, before, 0.5)
    d.rebuild(9)
    d.rebuild(8)  # the size itself is a valid capacity
    assert (d.N, d.fingerprint()) == (8, before)
    # the dynamic dict runs the same rebuild: its scheme never asks for
    # an N below the size, and a manual call may not either
    assert DynamicThresholdDict.rebuild is ThresholdedDict.rebuild
    dyn = DynamicThresholdDict(1, scheme="whi", scheme_seed=0)
    for k in range(8):
        dyn.insert(k, 0.0)
    state = (dyn.N, dyn.fingerprint(), dyn.stored_weight_sum())
    assert state[2] <= 1.0
    for N in (7, 2, 1):
        with pytest.raises(CapacityError):
            dyn.rebuild(N)
        assert (dyn.N, dyn.fingerprint(), dyn.stored_weight_sum()) == state


def test_duplicate_and_missing():
    d = ThresholdedDict(0, 4)
    d.insert(1, 0.5)
    with pytest.raises(DuplicateKeyError):
        d.insert(1, 0.5)
    with pytest.raises(MissingKeyError):
        d.delete(2)
    d.delete(1)
    assert d.node_count() == 0


def test_dictionary_contract_delegates():
    d = ThresholdedDict(1, 16)
    for k in range(1, 11):
        d.insert(k, 0.05, b"p%d" % k)
    assert d.search(7).found and d.search(7).payload == b"p7"
    assert not d.search(11).found
    assert d.predecessor(7) == 6
    assert d.range_query(3, 6) == [3, 4, 5, 6]
    assert d.raw_frequency(7) == 0.05
    with pytest.raises(MissingKeyError):
        d.raw_frequency(11)
    assert sorted(d) == list(range(1, 11))


def _histories(rng, target, spare, count):
    """``count`` random operation lists that each end holding ``target``:
    shuffled inserts with delete-reinsert and transient-key detours, and
    one grow-then-shrink through every spare key."""
    for _ in range(count):
        ops, present = [], []
        order = rng.sample(target, len(target))
        grow_at = rng.randrange(len(order))
        for i, key in enumerate(order):
            ops.append(("i", key))
            present.append(key)
            if rng.random() < 0.3:
                victim = rng.choice(present)
                ops += [("d", victim), ("i", victim)]
            if rng.random() < 0.2:
                extra = rng.choice(spare)
                ops += [("i", extra), ("d", extra)]
            if i == grow_at:
                ops += [("i", k) for k in spare]
                ops += [("d", k) for k in rng.sample(spare, len(spare))]
        yield ops


def _side_containers(obj, path="d"):
    """Attributes reachable from ``obj`` through hidict objects, other than
    a tree's root, that hold a container."""
    found = []
    for name, value in vars(obj).items():
        if name == "_root":
            continue
        if isinstance(value, (dict, list, set, frozenset, tuple)):
            found.append("%s.%s" % (path, name))
        elif type(value).__module__.startswith("hidict."):
            found += _side_containers(value, "%s.%s" % (path, name))
    return found


@pytest.mark.parametrize("make", [
    lambda: ThresholdedDict(3, 1000),
    lambda: DynamicThresholdDict(3, scheme="whi", scheme_seed=4),
    lambda: PairedDict(3, capacity=1000),
], ids=["threshold", "dynamic-whi", "paired"])
def test_history_leaves_no_trace_beside_the_tree(make):
    # one content set reached by many histories: the weight sum is the same
    # float every time, and no per-key store records the order keys came in
    rng = random.Random(8)
    target = rng.sample(range(1, 10_000), 120)
    spare = rng.sample(range(10_000, 20_000), 300)
    freqs = {k: rng.random() for k in target + spare}
    sums = set()
    for ops in _histories(rng, target, spare, 20):
        d = make()
        for op, key in ops:
            if op == "i":
                d.insert(key, freqs[key])
            else:
                d.delete(key)
        side = getattr(d, "learned", d)
        if isinstance(side, DynamicThresholdDict):
            side.rebuild(1000)  # the WHI cutoff is random; compare at one N
        assert d.keys() == sorted(target)
        assert _side_containers(d) == []
        sums.add(side.stored_weight_sum().hex())
    assert len(sums) == 1


def test_fingerprint_depends_on_capacity():
    def make(cap):
        d = ThresholdedDict(1, cap)
        d.insert(1, 0.0)
        return d
    assert make(100).fingerprint() != make(200).fingerprint()


def test_adversarial_zero_frequency_key_stays_logarithmic():
    # one unpredicted key among n=2000 zipf keys: mean comparisons well
    # below 4*log2(n) ~ 44
    n = 2000
    f = zipf_frequencies(n, 2.0)
    target = 1000
    comps = hi_comps = 0.0
    for seed in range(100):
        d = ThresholdedDict(seed, n)
        for k in range(1, n + 1):
            d.insert(k, 0.0 if k == target else float(f[k - 1]))
        comps += d.search(target).comparisons
        hi_comps += d.search(1).comparisons  # f ~ 0.61 key
    assert comps / 100 <= 4 * math.log2(n)
    assert hi_comps / 100 <= 8  # high-frequency key is O(1)


def test_robustness_max_depth_grows_logarithmically():
    # all-adversarial frequencies: max comparisons ratio between n=2000 and
    # n=250 stays near log 2000/log 250 ~ 1.38, asserted <= 2.0
    def mean_max(n, seeds=30):
        rng = random.Random(7)
        raw = [rng.random() for _ in range(n)]
        total = 0
        for seed in range(seeds):
            d = ThresholdedDict(seed, n)
            for k in range(1, n + 1):
                d.insert(k, raw[k - 1])
            total += max(d.search(k).comparisons for k in range(1, n + 1))
        return total / seeds

    assert mean_max(2000) / mean_max(250) <= 2.0


@pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
def test_consistency_constants_through_wrapper(alpha):
    # mean comparisons <= a*log2(1/f') + b with a=4, b=8 for every key
    n = 2000
    f = zipf_frequencies(n, alpha)
    seeds = 100
    means = np.zeros(n)
    for seed in range(seeds):
        d = ThresholdedDict(seed, n)
        for k in range(1, n + 1):
            d.insert(k, float(f[k - 1]))
        means += np.array([d.search(k).comparisons for k in range(1, n + 1)])
    means /= seeds
    fp = np.maximum(f / 2.0, 1.0 / (2 * n))
    bound = 4.0 * np.log2(1.0 / fp) + 8.0
    assert (means <= bound).all()
