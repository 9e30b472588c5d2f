import math
import random

import pytest

from hidict.core import ComparisonTally, DuplicateKeyError, MissingKeyError
from hidict.pairing import GAMMA_EXPECTED_DEPTH, GAMMA_HEIGHT, PairedDict
from hidict.structures import ZipZipTree, _PrecedenceTree


def build(seed, entries, gamma=1.0, capacity=None):
    d = PairedDict(seed, gamma=gamma, capacity=capacity)
    for k, f in entries:
        d.insert(k, f)
    return d


def test_insert_into_empty():
    d = PairedDict(0)
    d.insert(5, 0.5)
    assert d.learned.keys() == [5]
    assert d.keys() == [5]
    assert d.node_count() == 2


def test_node_count_is_2n():
    d = build(0, [(k, 1.0 / 64) for k in range(1, 65)])
    assert len(d) == 64
    assert d.node_count() == 128


def test_delete_to_empty_matches_fresh():
    d = build(3, [(1, 0.5), (2, 0.25)])
    d.delete(1)
    d.delete(2)
    assert d.fingerprint() == PairedDict(3).fingerprint()


def test_zero_frequency_rejected():
    d = PairedDict(0)
    with pytest.raises(ValueError):
        d.insert(1, 0.0)
    assert d.node_count() == 0


def test_tandem_invariant_and_atomicity():
    d = build(1, [(k, 0.01) for k in range(1, 33)])
    with pytest.raises(DuplicateKeyError):
        d.insert(7, 0.01)
    assert d.learned.keys() == d.keys()
    with pytest.raises(MissingKeyError):
        d.delete(99)
    assert d.learned.keys() == d.keys()
    d.delete(10)
    assert d.learned.keys() == d.keys() == [k for k in range(1, 33) if k != 10]


def test_budget_formula():
    d = build(0, [(k, 1.0 / 1024) for k in range(1, 1025)])
    assert d.search_budget() == 10  # floor(1 * log2 1024)
    d2 = build(0, [(1, 0.5)], gamma=1.0)
    assert d2.search_budget() == 1  # minimum budget
    d3 = build(0, [(k, 1.0 / 1024) for k in range(1, 1025)], gamma=0.5)
    assert d3.search_budget() == 5


@pytest.mark.parametrize("gamma", [0.5, 1.0, GAMMA_EXPECTED_DEPTH, GAMMA_HEIGHT, 2.5])
def test_budget_equals_the_floor_formula_at_every_size(gamma):
    # the budget reads only the size, so setting it stands in for n keys
    d = PairedDict(0, gamma)
    sizes = range(2**17 + 1)
    budgets = []
    for n in sizes:
        d._n = n
        budgets.append(d.search_budget())
    assert budgets == [max(1, math.floor(gamma * math.log2(max(n, 2)))) for n in sizes]


def test_search_tally_matches_tentative_then_fallback():
    # within-budget hits cost their learned depth; budget-exhausted searches
    # cost budget + fallback depth, exactly
    d = build(5, [(k, 1.0 / 512) for k in range(1, 513)])
    budget = d.search_budget()
    for k in range(1, 513):
        learned = d.learned.search(k)
        res = d.search(k)
        assert res.found
        if learned.comparisons <= budget:
            assert res.comparisons == learned.comparisons
        else:
            assert res.comparisons == budget + _PrecedenceTree.search(d, k).comparisons


def test_search_absent_and_empty():
    assert PairedDict(0).search(1).comparisons == 0
    d = build(0, [(2, 0.5), (4, 0.25)])
    assert not d.search(3).found


def test_robustness_bound_all_keys():
    # total comparisons <= floor(gamma log2 n) + fallback depth for every key
    d = build(2, [(k, 1e-6) for k in range(1, 257)])
    budget = d.search_budget()
    for k in range(1, 257):
        res = d.search(k)
        assert res.comparisons <= budget + _PrecedenceTree.search(d, k).comparisons


def test_strong_hi_joint_fingerprint():
    entries = [(k, 1.0 / (k + 1)) for k in range(1, 40)]
    a = build(9, sorted(entries))
    shuffled = list(entries)
    random.Random(4).shuffle(shuffled)
    b = build(9, shuffled)
    b.delete(17)
    b.insert(17, 1.0 / 18)
    assert a.fingerprint() == b.fingerprint()


class _UniformStream8(ZipZipTree):
    kind = "zipzip+8"
    _stream = 8


def test_inexact_queries_delegate_to_fallback():
    d = build(1, [(k, 0.02) for k in range(1, 11)])
    fallback = _UniformStream8(1)
    for k in range(1, 11):
        fallback.insert(k)
    # the dict's own tree is the uniform tree on stream 8
    assert _PrecedenceTree.fingerprint(d) == fallback.fingerprint()
    assert d.predecessor(5) == 4
    assert d.range_query(1, 10) == list(range(1, 11))
    assert 5 in d and 11 not in d
    assert sorted(d) == list(range(1, 11))


def test_range_comparisons_bounded():
    d = build(1, [(k, 1.0 / 512) for k in range(1, 513)])
    tally = ComparisonTally()
    out = d.range_query(50, 99, tally)
    assert out == list(range(50, 100))
    assert tally.count <= 4 * (math.log2(512) + len(out))


def test_check_invariants_sees_both_sides():
    d = build(2, [(k, 1.0 / 16) for k in range(1, 17)])
    d.check_invariants()
    d.learned.delete(9)
    with pytest.raises(AssertionError):
        d.check_invariants()


def test_gamma_validation_and_presets():
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            PairedDict(0, gamma=bad)
    assert PairedDict(0, gamma=GAMMA_HEIGHT).gamma == 3.82
    assert PairedDict(0, gamma=GAMMA_EXPECTED_DEPTH).gamma == 1.3863


def test_capacity_mode_thresholds_learned_side():
    d = PairedDict(0, capacity=8)
    d.insert(1, 0.0001)
    # learned side floors the weight at 1/(2*capacity)
    assert d.learned.stored_weight_sum() == pytest.approx(1.0 / 16)
