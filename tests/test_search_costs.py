"""``search_costs()`` charges every held key what its ``search`` costs.

The bench reads a structure's search comparisons for every key from one
walk instead of searching each queried key; the walk must agree with the
search on every structure, key by key.
"""

import random

import pytest

from hidict.bench import STRUCTURE_NAMES, make_structure
from hidict.dynamics import DynamicThresholdDict
from hidict.pairing import PairedDict
from hidict.structures import LTreap


def _assert_costs_are_searches(s):
    costs = s.search_costs()
    assert sorted(costs) == s.keys()
    for key, comparisons in costs.items():
        res = s.search(key)
        assert res.found
        assert comparisons == res.comparisons, key


def _fill(s, n, seed):
    rng = random.Random(seed)
    keys = list(range(1, n + 1))
    rng.shuffle(keys)
    for key in keys:
        s.insert(key, 1.0 / (key + rng.random()) / 8)


@pytest.mark.parametrize("name", STRUCTURE_NAMES)
def test_search_costs_equal_searches(name):
    s = make_structure(name, 11, 300)
    assert s.search_costs() == {}
    _fill(s, 300, 4)
    _assert_costs_are_searches(s)


@pytest.mark.parametrize("capacity", [None, 400])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 3.82])
def test_paired_search_costs_apply_the_budget(capacity, gamma):
    d = PairedDict(5, gamma=gamma, capacity=capacity)
    assert d.search_costs() == {}
    _fill(d, 300, 9)
    _assert_costs_are_searches(d)
    if gamma == 0.5:
        # both sides of the budget rule are taken
        budget = d.search_budget()
        learned = d.learned.search_costs()
        assert min(learned.values()) <= budget < max(learned.values())


def test_dynamic_dict_search_costs_equal_searches():
    d = DynamicThresholdDict(3, scheme="whi", scheme_seed=8)
    _fill(d, 200, 2)
    _assert_costs_are_searches(d)


def test_search_costs_on_a_right_leaning_l_treap_path():
    # keys in order with f falling: every key sits one level below the last
    t = LTreap(2)
    t.load_sorted((k, 1.0 / k, None) for k in range(1, 1501))
    assert t.search_costs() == {k: k for k in range(1, 1501)}
    _assert_costs_are_searches(t)
