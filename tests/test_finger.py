"""The right spine of every precedence tree, and its end, the largest key.

Seeded random histories mix ascending appends (which attach below the
spine's end), inserts below the largest key, deletes of the largest key,
other deletes and deletes that empty the tree.  After every operation each
side of the dict must hold its spine, the walk from the root along right
children, ending at its largest key, keep its invariants,
print the fingerprint of a shuffled-order build of the same contents, and
hold the same attribute names as a fresh dict.
"""

import random
import sys

import pytest

from hidict.core import CapacityError
from hidict.dynamics import DynamicThresholdDict
from hidict.pairing import PairedDict
from hidict.structures import CTreap, LTreap, ZipZipTree, _PrecedenceTree
from hidict.thresholding import ThresholdedDict

CAPACITY = 12

STRUCTURES = {
    "zipzip": lambda: ZipZipTree(3),
    "biased-zipzip": lambda: ZipZipTree(3),
    "l-treap": lambda: LTreap(3),
    "c-treap": lambda: CTreap(3),
    "threshold": lambda: ThresholdedDict(3, CAPACITY),
    "paired": lambda: PairedDict(3),
    "paired-capacity": lambda: PairedDict(3, capacity=CAPACITY),
    "dynamic-whi": lambda: DynamicThresholdDict(3, scheme="whi", scheme_seed=5),
    "dynamic-amortized": lambda: DynamicThresholdDict(3, scheme="amortized", scheme_seed=5),
}

CASES = [(name, False) for name in STRUCTURES] + [
    (name, True) for name in ("zipzip", "biased-zipzip", "l-treap", "c-treap")]


def _sides(d):
    return (d, d.learned) if isinstance(d, PairedDict) else (d,)


def _check(d, contents, name, fresh, rng):
    for side, fresh_side in zip(_sides(d), _sides(fresh)):
        keys = side.keys()
        walk, cur = [], side._root
        while cur is not None:
            walk.append(cur)
            cur = cur.right
        assert side._spine == walk
        assert side._spine_keys == [node.key for node in walk]
        if keys:
            assert side._spine[-1].key == keys[-1]
            assert side._spine[-1].right is None
        else:
            assert side._spine == side._spine_keys == []
        assert set(vars(side)) == set(vars(fresh_side))
    d.check_invariants()
    order = sorted(contents.items())
    rng.shuffle(order)
    ref = STRUCTURES[name]()
    for key, (f, payload) in order:
        ref.insert(key, f, payload)
    if isinstance(ref, DynamicThresholdDict):
        ref.rebuild(d.N)  # the tree is a function of (contents, seed, N)
    assert d.fingerprint() == ref.fingerprint()


@pytest.mark.parametrize("name, load", CASES,
                         ids=["%s%s" % (name, "-load_sorted" if load else "")
                              for name, load in CASES])
def test_finger_holds_the_largest_key(name, load):
    rng = random.Random("finger-%s-%s" % (name, load))
    ref_rng = random.Random(0)
    d = STRUCTURES[name]()
    fresh = STRUCTURES[name]()
    contents = {}
    seen = {"append": 0, "rejected above": 0, "delete max": 0, "emptied": 0, "rebuild": 0}

    def weight(key):
        if name == "zipzip":
            return 1.0
        # mostly falling with the key, the paper bench's L-treap path
        return 1.0 / (key + 1) if rng.random() < 0.7 else rng.uniform(1e-3, 1.0)

    def insert(key):
        f, payload = weight(key), b"p%d" % key
        top = max(contents, default=None)
        N = getattr(d, "N", None)
        try:
            d.insert(key, f, payload)
        except CapacityError:
            assert len(contents) == CAPACITY
            seen["rejected above"] += top is not None and key > top
            return
        contents[key] = (f, payload)
        seen["append"] += top is None or key > top
        seen["rebuild"] += getattr(d, "N", None) != N

    def delete(key):
        d.delete(key)
        del contents[key]
        seen["emptied"] += not contents

    if load:
        keys = sorted(rng.sample(range(1, 40), 25))
        entries = [(key, weight(key), b"p%d" % key) for key in keys]
        d.load_sorted(entries)
        contents.update((key, (f, payload)) for key, f, payload in entries)
        _check(d, contents, name, fresh, ref_rng)
    for _ in range(400):
        top = max(contents, default=0)
        u = rng.random()
        if u < 0.5:
            insert(top + rng.randint(1, 3))
        elif u < 0.65 and top > 1:
            key = rng.randint(1, top - 1)
            if key not in contents:
                insert(key)
        elif u < 0.82 and contents:
            seen["delete max"] += 1
            delete(top)
        elif u < 0.9 and contents:
            delete(rng.choice(sorted(contents)))
        elif u >= 0.99:
            for key in rng.sample(sorted(contents), len(contents)):
                delete(key)
                _check(d, contents, name, fresh, ref_rng)
        _check(d, contents, name, fresh, ref_rng)
    assert seen["append"] > 50 and seen["delete max"] > 20 and seen["emptied"] > 0
    if name in ("threshold", "paired-capacity"):
        assert seen["rejected above"] > 0
    if name.startswith("dynamic"):
        assert seen["rebuild"] > 0


def _append_lines(n):
    # the lines the engine's insert runs to append key n + 1 to a path of
    # keys 1..n whose f falls with the key
    t = LTreap(2)
    t.load_sorted((k, 1.0 / k, None) for k in range(1, n + 1))
    code = _PrecedenceTree.insert.__code__
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        t.insert(n + 1, 1.0 / (n + 1))
    finally:
        sys.settrace(None)
    t.check_invariants()
    return lines


def test_an_ascending_append_walks_no_levels():
    # at the bottom of a 4,096-node path as at the bottom of a 64-node one
    assert _append_lines(4096) == _append_lines(64) < 20
