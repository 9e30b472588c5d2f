"""Model-based fuzzing of the dictionary contract.

A hypothesis state machine drives every dictionary through one random
sequence of inserts, deletes and queries (payloads included) and checks
each reply and the key order against a plain dict.  A range query's tally
must equal the node count of the recursive range walk over the
structure's own tree (the paired dict's fallback tree).  After every
step, each history-independent structure's fingerprint must equal that of
a fresh build of the model's contents in sorted order; for the dynamic
dicts the fresh build is then rebuilt at the same cutoff N.  That is
unique representation, checked on the real structures.  Each thresholded
dict (the paired dict's learned side included) must also keep its
cutoff N at least its size and report the model's raw frequency for
every key and the fresh build's weight sum.
The AVL tree depends on its history by design, so its replies, its keys
and its own invariants (exact heights, balance in [-1, 1]) are checked.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from hidict.core import ComparisonTally, DuplicateKeyError, MissingKeyError
from hidict.dynamics import AMORTIZED_INITIAL_CUTOFF, DynamicThresholdDict
from hidict.pairing import PairedDict
from hidict.structures import AVLTree, CTreap, LTreap, ZipZipTree
from hidict.thresholding import ThresholdedDict

SEED = 41
CAPACITY = 64
KEYS = st.integers(1, 40)
FREQS = st.sampled_from([1e-9, 0.01, 0.125, 0.3, 1.0])
PAYLOADS = st.none() | st.binary(max_size=3)
# range bounds reach one past each end of the key domain
BOUNDS = st.integers(0, 41)


# structures whose fresh build is a sorted bulk load
_LOADED = {"zipzip": ZipZipTree, "l-treap": LTreap, "c-treap": CTreap}


def _range_visits(node, lo, hi):
    """The nodes a range query compares, by the recursive definition: a
    node left of lo goes right, a node right of hi goes left, and a node
    in range goes both ways."""
    if node is None:
        return 0
    if node.key < lo:
        return 1 + _range_visits(node.right, lo, hi)
    if node.key > hi:
        return 1 + _range_visits(node.left, lo, hi)
    return 1 + _range_visits(node.left, lo, hi) + _range_visits(node.right, lo, hi)


def _fresh(name, entries, N):
    """A fresh build of sorted (key, f, payload) entries."""
    if name in _LOADED:
        t = _LOADED[name](SEED)
        t.load_sorted(entries)
        return t
    if name == "threshold":
        t = ThresholdedDict(SEED, CAPACITY)
    elif name == "paired":
        t = PairedDict(SEED)
    elif name == "paired-threshold":
        t = PairedDict(SEED, capacity=CAPACITY)
    else:
        t = DynamicThresholdDict(SEED, scheme=name.split("-")[1])
    for entry in entries:
        t.insert(*entry)
    if N is not None:
        t.rebuild(N)
    return t


class DictionaryContract(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.model = {}
        self.structs = {
            "zipzip": ZipZipTree(SEED),
            "threshold": ThresholdedDict(SEED, CAPACITY),
            "dynamic-whi": DynamicThresholdDict(SEED, scheme="whi", scheme_seed=5),
            "dynamic-amortized": DynamicThresholdDict(SEED, scheme="amortized"),
            "paired": PairedDict(SEED),
            "paired-threshold": PairedDict(SEED, capacity=CAPACITY),
            "l-treap": LTreap(SEED),
            "c-treap": CTreap(SEED),
            "avl": AVLTree(SEED),
        }

    @rule(key=KEYS, f=FREQS, payload=PAYLOADS)
    def insert(self, key, f, payload):
        for s in self.structs.values():
            if key in self.model:
                with pytest.raises(DuplicateKeyError):
                    s.insert(key, f, payload)
            else:
                s.insert(key, f, payload)
        self.model.setdefault(key, (f, payload))

    @rule(key=KEYS)
    def delete(self, key):
        for s in self.structs.values():
            if key in self.model:
                s.delete(key)
            else:
                with pytest.raises(MissingKeyError):
                    s.delete(key)
        self.model.pop(key, None)

    @rule(key=KEYS)
    def search(self, key):
        expected = self.model.get(key)
        for s in self.structs.values():
            res = s.search(key)
            assert res.found == (expected is not None)
            assert res.payload == (expected[1] if expected else None)

    @rule(key=KEYS)
    def predecessor(self, key):
        expected = max((k for k in self.model if k < key), default=None)
        for s in self.structs.values():
            assert s.predecessor(key) == expected

    @rule(a=BOUNDS, b=BOUNDS)
    def range_query(self, a, b):
        lo, hi = min(a, b), max(a, b)
        expected = sorted(k for k in self.model if lo <= k <= hi)
        for name, s in self.structs.items():
            tally = ComparisonTally()
            assert s.range_query(lo, hi, tally) == expected
            assert tally.count == _range_visits(s._root, lo, hi), name

    @invariant()
    def equals_fresh_sorted_build(self):
        entries = [(k, f, p) for k, (f, p) in sorted(self.model.items())]
        for name, s in self.structs.items():
            assert s.keys() == [k for k, _, _ in entries]
            if name == "avl":
                s.check_invariants()
                continue
            N = s.N if name.startswith("dynamic") else None
            fresh = _fresh(name, entries, N)
            assert s.fingerprint() == fresh.fingerprint(), name
            side = getattr(s, "learned", s)
            if isinstance(side, ThresholdedDict):
                # the cutoff never drops below the size: the weight-sum bound
                assert side.N >= len(side), name
                assert [side.raw_frequency(k) for k, _, _ in entries] == [f for _, f, _ in entries]
                assert side.stored_weight_sum() == getattr(fresh, "learned", fresh).stored_weight_sum()


DictionaryContract.TestCase.settings = settings(max_examples=100, stateful_step_count=50)
test_dictionary_contract = DictionaryContract.TestCase


def test_rebuild_then_empty_then_refill(monkeypatch):
    # the amortized scheme squares N at n == 4 and resets it, with no
    # rebuild due, when the dict empties; the refill must draw its ranks at
    # the reset N
    machine = DictionaryContract()
    amortized = machine.structs["dynamic-amortized"]
    rebuilds = []
    rebuild = DynamicThresholdDict.rebuild

    def counting(self, N):
        if self is amortized:
            rebuilds.append(N)
        return rebuild(self, N)

    monkeypatch.setattr(DynamicThresholdDict, "rebuild", counting)
    for k in range(1, 6):
        machine.insert(k, 0.125, b"p")
        machine.equals_fresh_sorted_build()
    assert rebuilds == [16]
    for k in range(1, 6):
        machine.delete(k)
        machine.equals_fresh_sorted_build()
    for k in range(3, 6):
        machine.insert(k, 0.125, b"p")
        machine.equals_fresh_sorted_build()
    assert amortized.N == AMORTIZED_INITIAL_CUTOFF
