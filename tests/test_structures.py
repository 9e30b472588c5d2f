import hashlib
import math
import random
import struct
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hidict.structures
from hidict.core import (
    ComparisonTally,
    DuplicateKeyError,
    MissingKeyError,
    geometric_from_bits,
    oracle_uniform,
    oracle_value,
)
from hidict.structures import (
    AVLTree,
    CTreap,
    LTreap,
    ZipZipTree,
    _MIN_CTREAP_F,
    _Node,
    _order_bits,
    _wins,
    zz_rank,
    zz_rerank,
)
from hidict.dynamics import DynamicThresholdDict
from hidict.pairing import PairedDict
from hidict.thresholding import ThresholdedDict, threshold
from hidict.workloads import zipf_frequencies
from test_write_frames import _frames


def build(cls, seed, keys, weight=1.0):
    t = cls(seed)
    for k in keys:
        t.insert(k, weight)
    return t


# ---------------------------------------------------------------- zz_rank

def _key_with_geometric(seed, draw):
    for k in range(1, 100_000):
        if geometric_from_bits(oracle_value(seed, k, 0)) == draw:
            return k
    raise AssertionError("no key found with geometric draw %d" % draw)


def test_zz_rank_weight_one_draw_zero():
    k = _key_with_geometric(11, 0)
    assert zz_rank(11, k, 1.0)[0] == 0


def test_zz_rank_eighth_weight_draw_two():
    k = _key_with_geometric(11, 2)
    assert zz_rank(11, k, 0.125)[0] == -1  # -3 + 2


def test_zz_rank_draws_with_a_full_top_byte():
    # a rank reads a draw's leading ones from its top byte, and all 64 bits
    # when that byte is 0xFF: draws of 7, 8 and more ones, on both streams
    for stream in (0, 8):
        draws = {}
        for k in range(1, 60_000):
            draw = geometric_from_bits(oracle_value(4, k, stream))
            if draw >= 7:
                draws[k] = draw
        assert {7, 8} <= set(draws.values()) and max(draws.values()) > 8
        for k, draw in draws.items():
            r1, r2 = zz_rank(4, k, 0.5, stream)
            assert (r1, r2) == (-1 + draw, oracle_value(4, k, stream + 1) & 0xFFFFFFFF)


def test_zz_rank_rejects_nonpositive_weight():
    with pytest.raises(ValueError):
        zz_rank(1, 2, 0.0)
    with pytest.raises(ValueError):
        zz_rank(1, 2, -1.0)


@pytest.mark.parametrize("w,expect", [(1.0, 1.0), (0.125, -2.0), (6.0, 3.0)])
def test_zz_rank_expected_value(w, expect):
    # E[r1] = floor(log2 w) + E[Geom(1/2)] = floor(log2 w) + 1
    mean = sum(zz_rank(3, k, w)[0] for k in range(100_000)) / 100_000
    assert mean == pytest.approx(expect, abs=0.05)


def test_zz_rank_deterministic():
    assert zz_rank(9, 77, 0.25) == zz_rank(9, 77, 0.25)


def _reference_rank(seed, key, weight, stream):
    # the rank's definition, on the independent oracle_value
    return (math.floor(math.log2(weight)) + geometric_from_bits(oracle_value(seed, key, stream)),
            oracle_value(seed, key, stream + 1) & 0xFFFFFFFF)


# one key type per tree, since keys of one tree must compare
_RANK_KEYS = (
    [0, -1, -(2**70) - 3, 5, 255, 256, 2**64, 2**64 + 1],
    ["", "a", "\xe9", "\u65e5\u672c", "na\xefve", "\U0001f600"],
    [b"", b"\x00", b"\xff\x00", b"s", b"abc"],
)
_RANK_SEEDS = (0, -3, 2**64 + 5, 2**70 - 1)


def _pack(r1, r2):
    # the int (r1 << 32) | r2 whose exact double a tree stores as the
    # zz_rank pair (r1, r2)
    return (r1 << 32) | r2


def _pair_text(rank):
    # the pair as the fingerprint prints it from a stored rank
    r = int(rank)
    return "(%d, %d)" % (r >> 32, r & 0xFFFFFFFF)


# r1 = floor(log2 w) + Geometric(1/2) over every positive finite double w:
# its level lies in [-1074, 1023] (5e-324 to the largest double) and the
# draw in [0, 64]
_LEVEL_MIN, _LEVEL_MAX, _DRAW_MAX = -1074, 1023, 64
_R1_MIN, _R1_MAX = _LEVEL_MIN, _LEVEL_MAX + _DRAW_MAX
_R2_EDGES = (0, 1, 2**31, 2**32 - 1)
_R1S = st.one_of(st.sampled_from([_R1_MIN, -1, 0, _R1_MAX]), st.integers(_R1_MIN, _R1_MAX))
_TIE_BREAKERS = st.one_of(st.sampled_from(_R2_EDGES), st.integers(0, 2**32 - 1))


@given(st.tuples(_R1S, _TIE_BREAKERS), st.tuples(_R1S, _TIE_BREAKERS))
def test_packed_rank_orders_as_the_pair_and_decodes_to_it(a, b):
    pa, pb = _pack(*a), _pack(*b)
    da, db = float(pa), float(pb)
    assert (pa < pb) == (a < b) == (da < db)
    assert (pa == pb) == (a == b) == (da == db)
    for pair, packed, stored in ((a, pa, da), (b, pb, db)):
        assert int(stored) == packed
        # zz_rank decodes by divmod; the fingerprint prints the pair
        assert divmod(int(stored), 2**32) == pair
        assert _pair_text(stored) == repr(pair)


def test_stored_rank_is_exact_and_ordered_over_every_r1():
    # every r1 the rank can take, both ends included, with the edge
    # tie-breakers: the doubles round-trip and sort as the pairs do
    pairs = [(r1, r2) for r1 in range(_R1_MIN, _R1_MAX + 1) for r2 in _R2_EDGES]
    stored = [float(_pack(*pair)) for pair in pairs]
    assert [divmod(int(rank), 2**32) for rank in stored] == pairs
    assert all(a < b for a, b in zip(stored, stored[1:]))
    assert len(set(stored)) == len(pairs)
    assert abs(stored[0]) < 2**43 and abs(stored[-1]) < 2**43


def test_rerank_of_a_stored_rank_is_the_double_of_the_int_rerank():
    # zz_rerank on the double equals the double of zz_rerank on the int,
    # from the two end levels (and two inner ones) to every level, so a
    # thresholded rebuild moves a stored rank exactly
    for draw in (0, 1, _DRAW_MAX):
        for r2 in _R2_EDGES:
            for old in (_LEVEL_MIN, -1, 0, _LEVEL_MAX):
                packed = _pack(old + draw, r2)
                stored = float(packed)
                for new in range(_LEVEL_MIN, _LEVEL_MAX + 1):
                    moved = zz_rerank(stored, 2.0 ** old, 2.0 ** new)
                    assert type(moved) is float
                    assert moved == float(zz_rerank(packed, 2.0 ** old, 2.0 ** new))
                    assert int(moved) == _pack(new + draw, r2), (draw, r2, old, new)


def test_zz_rank_equals_the_reference_oracle():
    for seed in _RANK_SEEDS:
        for keys in _RANK_KEYS:
            for key in keys:
                for stream in (0, 8, 255):
                    assert (zz_rank(seed, key, 0.375, stream)
                            == _reference_rank(seed, key, 0.375, stream)), (seed, key, stream)


def _fill(d, keys, weight):
    for i, k in enumerate(keys):
        d.insert(k, weight(i))


def _halving(i):
    return 0.5 ** i


# the least and largest doubles, subnormals, and weights far above 1
_EXTREME_WEIGHTS = (5e-324, 1e300, 3 * 5e-324, sys.float_info.max, 2.0 ** -1022, 0.75,
                    1e-300, 2.0 ** 1000)


def _extreme(i):
    return _EXTREME_WEIGHTS[i % len(_EXTREME_WEIGHTS)]


@pytest.mark.parametrize("make, weight", [
    (lambda seed: ZipZipTree(seed), _halving),
    (lambda seed: ZipZipTree(seed), _extreme),
    (lambda seed: ThresholdedDict(seed, 64), _halving),
    (lambda seed: DynamicThresholdDict(seed, scheme="whi", scheme_seed=1), _halving),
    (lambda seed: PairedDict(seed, capacity=64), _halving),
    (lambda seed: PairedDict(seed), _halving),
], ids=["zipzip", "biased-extremes", "threshold", "dynamic-whi", "paired-cap", "paired"])
def test_tree_ranks_equal_zz_rank_and_the_reference_oracle(make, weight, monkeypatch):
    # each side's ranks, on its own stream (the paired fallback's is 8),
    # at the weight each was drawn at
    trees = {}
    for seed in _RANK_SEEDS:
        for keys in _RANK_KEYS:
            d = make(seed)
            _fill(d, keys, weight)
            fp = d.fingerprint()
            sides = [d, d.learned] if isinstance(d, PairedDict) else [d]
            for tree in sides:
                for node in tree._inorder():
                    drawn = (threshold(node.weight, tree.N)
                             if isinstance(tree, ThresholdedDict) else node.weight)
                    args = (seed, node.key, drawn, tree._stream)
                    # the stored rank is the exact double of the packed pair
                    assert type(node.rank) is float, args
                    assert int(node.rank) == _pack(*zz_rank(*args)), args
                    assert (divmod(int(node.rank), 2**32) == zz_rank(*args)
                            == _reference_rank(*args)), args
                    text = "(%r:%s:%r)" % (node.key, repr(zz_rank(*args)), drawn)
                    assert text.encode() in fp, args
            trees[seed, keys[-1]] = fp
    # the same structures with every rank drawn by the reference zz_rank
    # and stored as the int: Python compares an int with a float exactly
    monkeypatch.setattr(ZipZipTree, "_rank",
                        lambda self, key, w: _pack(*zz_rank(self.seed, key, w, self._stream)))
    for seed in _RANK_SEEDS:
        for keys in _RANK_KEYS:
            ref = make(seed)
            _fill(ref, keys, weight)
            assert ref.fingerprint() == trees[seed, keys[-1]]


@pytest.mark.parametrize("make, sides", [
    (lambda: ZipZipTree(5), 1),
    (lambda: ThresholdedDict(5, 1000), 1),
    (lambda: DynamicThresholdDict(5, scheme="whi", scheme_seed=2), 1),
    (lambda: PairedDict(5, capacity=1000), 2),
    (lambda: PairedDict(5), 2),
    (lambda: LTreap(5), 1),
    (lambda: CTreap(5), 1),
], ids=["zipzip", "threshold", "dynamic-whi", "paired-cap", "paired", "l-treap", "c-treap"])
def test_an_insert_keys_no_hasher_and_encodes_its_key_once_per_side(make, sides,
                                                                    monkeypatch):
    # a rank copies the tree's hasher: no blake2b is keyed on the write
    # path, rebuilds included, and the key is encoded once, not per stream
    d = make()
    built, encoded = [], []
    real_blake2b, real_key_bytes = hashlib.blake2b, hidict.structures._key_bytes

    def counting_blake2b(*args, **kwargs):
        built.append(kwargs)
        return real_blake2b(*args, **kwargs)

    def counting_key_bytes(key):
        encoded.append(key)
        return real_key_bytes(key)

    keys = random.Random(2).sample(range(10_000), 300)
    monkeypatch.setattr(hashlib, "blake2b", counting_blake2b)
    monkeypatch.setattr(hidict.structures, "_key_bytes", counting_key_bytes)
    for k in keys:
        d.insert(k, 0.01)
    monkeypatch.undo()
    assert built == []
    assert encoded == [k for k in keys for _ in range(sides)]


# ------------------------------------------------------------ zip-zip tree

def test_insert_order_independence():
    a = build(ZipZipTree, 5, [1, 2, 3])
    b = build(ZipZipTree, 5, [3, 1, 2])
    assert a.fingerprint() == b.fingerprint()


def test_delete_reinsert_matches_never_deleted():
    a = build(ZipZipTree, 5, range(1, 20))
    b = build(ZipZipTree, 5, range(1, 20))
    b.delete(7)
    b.insert(7)
    assert a.fingerprint() == b.fingerprint()


def test_duplicate_insert_rejected():
    t = build(ZipZipTree, 1, [4])
    with pytest.raises(DuplicateKeyError):
        t.insert(4)
    assert t.node_count() == 1


def test_delete_absent_rejected():
    t = build(ZipZipTree, 1, [4])
    with pytest.raises(MissingKeyError):
        t.delete(5)


def test_delete_matches_fresh_build():
    t = build(ZipZipTree, 8, range(1, 9))
    t.delete(5)
    fresh = build(ZipZipTree, 8, [k for k in range(1, 9) if k != 5])
    assert t.fingerprint() == fresh.fingerprint()


def test_delete_to_empty():
    t = build(ZipZipTree, 8, [3])
    t.delete(3)
    assert t.fingerprint() == ZipZipTree(8).fingerprint()
    assert t.node_count() == 0


def test_random_traces_match_fresh_builds():
    rng = random.Random(0)
    for _ in range(200):
        t = ZipZipTree(13)
        present = set()
        for _ in range(rng.randint(1, 80)):
            k = rng.randint(1, 64)
            if k in present:
                t.delete(k)
                present.discard(k)
            else:
                t.insert(k)
                present.add(k)
        fresh = build(ZipZipTree, 13, sorted(present))
        assert t.fingerprint() == fresh.fingerprint()
        t.check_invariants()


def test_uniform_depth_bound():
    # expected depth ~ 1.39 * log2 n; assert the generous 3.0 * log2 n bound
    n, total = 1024, 0.0
    for seed in range(100):
        t = build(ZipZipTree, seed, range(1, n + 1))
        total += sum(t.search(k).comparisons for k in range(1, n + 1)) / n
    assert total / 100 <= 3.0 * math.log2(n)


def test_search_empty_and_single():
    t = ZipZipTree(0)
    r = t.search(1)
    assert (r.found, r.comparisons) == (False, 0)
    t.insert(42)
    r = t.search(42)
    assert (r.found, r.comparisons) == (True, 1)


def test_search_absent_reports_not_found():
    t = build(ZipZipTree, 0, [2, 4, 8])
    r = t.search(5)
    assert not r.found and r.comparisons >= 1


def test_payload_roundtrip():
    t = ZipZipTree(0)
    t.insert(1, 1.0, b"hello")
    assert t.search(1).payload == b"hello"
    # payload affects the content digest but not the shape section
    u = ZipZipTree(0)
    u.insert(1, 1.0, b"other")
    assert t.fingerprint() != u.fingerprint()


def test_biased_beats_avl_on_skewed_queries():
    # perfect zipf(alpha=2) predictions: biased mean < AVL mean
    n = 2000
    f = zipf_frequencies(n, 2.0)
    avl = AVLTree()
    for k in range(1, n + 1):
        avl.insert(k)
    avl_mean = sum(f[k - 1] * avl.search(k).comparisons for k in range(1, n + 1))
    means = []
    for seed in range(5):
        t = ZipZipTree(seed)
        for k in range(1, n + 1):
            t.insert(k, float(f[k - 1]))
        means.append(sum(f[k - 1] * t.search(k).comparisons for k in range(1, n + 1)))
    assert sum(means) / len(means) < avl_mean


# ----------------------------------------------------- predecessor / range

@pytest.mark.parametrize("cls", [ZipZipTree, AVLTree])
def test_predecessor(cls):
    t = build(cls, 3, [2, 4, 8])
    assert t.predecessor(5) == 4
    assert t.predecessor(2) is None  # strictly smaller
    assert t.predecessor(100) == 8


@pytest.mark.parametrize("cls", [ZipZipTree, AVLTree])
def test_range(cls):
    t = build(cls, 3, range(1, 11))
    assert t.range_query(3, 8) == [3, 4, 5, 6, 7, 8]
    assert t.range_query(11, 20) == []
    with pytest.raises(ValueError):
        t.range_query(8, 3)


def test_range_comparisons_bounded():
    n = 512
    t = build(ZipZipTree, 1, range(1, n + 1))
    tally = ComparisonTally()
    out = t.range_query(100, 149, tally)
    assert out == list(range(100, 150))
    assert tally.count <= 4 * (math.log2(n) + len(out))


# ---------------------------------------------------------------- treaps

def _float_of_order_bits(order):
    # the inverse of _order_bits, which maps -0.0 to the order of 0.0
    bits = order if order >= 0 else -order | 1 << 63
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


_ESTIMATES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 0.37, -0.37, 1.0, -1.0,
                                        sys.float_info.max, -sys.float_info.max]),
                       st.floats(allow_nan=False, allow_infinity=False))
_ORACLES = st.one_of(st.sampled_from([0, 1, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1))


@given(st.tuples(_ESTIMATES, _ORACLES), st.tuples(_ESTIMATES, _ORACLES))
def test_treap_priority_l_is_frequency(a, b):
    # the L-treap stores the priority pair (f, oracle) as one int, which
    # orders as the pair does and decodes to it, -0.0 tying with 0.0
    pa, pb = ((_order_bits(f) << 64) | o for f, o in (a, b))
    assert (pa < pb) == (a < b)
    assert (pa == pb) == (a == b)
    for (f, o), packed in ((a, pa), (b, pb)):
        assert _float_of_order_bits(packed >> 64) == f
        assert packed & (2**64 - 1) == o


@given(st.lists(st.tuples(st.integers(-50, 50), _ESTIMATES), min_size=1, max_size=8,
                unique_by=lambda kf: kf[0]))
def test_treap_rank_l_packs_the_frequency_and_oracle_pair(entries):
    t = LTreap(1)
    for key, f in entries:
        t.insert(key, f)
    pairs = {node.key: (node.weight, oracle_value(1, node.key, 2)) for node in t._inorder()}
    for node in t._inorder():
        assert node.rank == (_order_bits(node.weight) << 64) | pairs[node.key][1]
        for other in t._inorder():
            assert (node.rank < other.rank) == (pairs[node.key] < pairs[other.key])
    assert t._root.key == min(pairs, key=lambda k: (-pairs[k][0], -pairs[k][1], k))


@given(st.integers(-50, 50), st.floats(min_value=_MIN_CTREAP_F, allow_infinity=False),
       st.integers(-50, 50), st.floats(min_value=_MIN_CTREAP_F, allow_infinity=False))
def test_treap_priority_c_identity_at_f1(ka, fa, kb, fb):
    # the stored priority is the float log(u**(1/f)) = log(u)/f, which is
    # log u at f = 1; it orders as the one-float tuple it once was.  A
    # smaller f is refused (tests/test_refusals.py)
    ra, rb = CTreap(1)._rank(ka, fa), CTreap(1)._rank(kb, fb)
    for key, f, rank in ((ka, fa, ra), (kb, fb, rb)):
        assert type(rank) is float
        assert rank == math.log(oracle_uniform(1, key, 3)) / f
    assert (ra < rb) == ((ra,) < (rb,))
    t = CTreap(1)
    t.insert(5, 1.0)
    assert t._root.rank == math.log(oracle_uniform(1, 5, 3))


@pytest.mark.parametrize("cls", [LTreap, CTreap])
def test_treap_ranks_equal_the_reference_oracle(cls):
    # a treap draws its oracle bits from its keyed hasher; every rank
    # equals the one oracle_value gives, for each key type and for seeds
    # that are negative or at least 2**64
    for seed in _RANK_SEEDS:
        for keys in _RANK_KEYS:
            t = cls(seed)
            _fill(t, keys, _halving)
            assert len(t) == len(keys)
            for node in t._inorder():
                if cls is LTreap:
                    expect = (_order_bits(node.weight) << 64) | oracle_value(seed, node.key, 2)
                else:
                    expect = math.log(oracle_uniform(seed, node.key, 3)) / node.weight
                assert type(node.rank) is type(expect), (seed, node.key)
                assert node.rank == expect, (seed, node.key)


def test_ltreap_higher_frequency_is_ancestor():
    for order in ([(1, 0.5), (2, 0.25)], [(2, 0.25), (1, 0.5)]):
        t = LTreap(7)
        for k, f in order:
            t.insert(k, f)
        assert t._root.key == 1


def test_ltreap_unique_shape_across_orders():
    f = {k: 1.0 / k for k in range(1, 9)}
    a = LTreap(3)
    for k in range(1, 9):
        a.insert(k, f[k])
    b = LTreap(3)
    for k in [5, 2, 8, 1, 7, 3, 6, 4]:
        b.insert(k, f[k])
    assert a.fingerprint() == b.fingerprint()


def test_ctreap_root_probability():
    # P(root = a) = w_a / (w_a + w_b) for weighted treaps
    hits = sum(
        1
        for seed in range(10_000)
        if build_ct(seed)._root.key == 1
    )
    assert hits / 10_000 == pytest.approx(0.8, abs=0.02)


def build_ct(seed):
    t = CTreap(seed)
    t.insert(1, 0.8)
    t.insert(2, 0.2)
    return t


def test_ctreap_rejects_zero_frequency():
    t = CTreap(0)
    with pytest.raises(ValueError):
        t.insert(1, 0.0)


# ------------------------------------------------------------------- AVL

def test_avl_height_bound():
    for n in (10, 100, 500, 2000):
        t = AVLTree()
        for k in range(1, n + 1):
            t.insert(k)
        assert t.height() <= 1.44 * math.log2(n + 2)
        assert t.keys() == list(range(1, n + 1))
        t.check_invariants()


def test_avl_delete():
    t = AVLTree()
    for k in range(1, 64):
        t.insert(k)
    for k in range(1, 64, 2):
        t.delete(k)
        t.check_invariants()
    assert t.keys() == list(range(2, 64, 2))
    assert t.height() <= 1.44 * math.log2(t.node_count() + 2)
    with pytest.raises(MissingKeyError):
        t.delete(1)
    with pytest.raises(DuplicateKeyError):
        t.insert(2)


class _RecursiveAVL(AVLTree):
    """Reference AVL: the recursive insert and delete that rebalance every
    level of the path up to the root.  Its shapes are the ones the
    iterative writes must keep."""

    @staticmethod
    def _ref_fix(node):
        node.rank = 1 + max(AVLTree._h(node.left), AVLTree._h(node.right))

    @staticmethod
    def _ref_balance(node):
        return AVLTree._h(node.left) - AVLTree._h(node.right)

    def _ref_rot_right(self, y):
        x = y.left
        y.left = x.right
        x.right = y
        self._ref_fix(y)
        self._ref_fix(x)
        return x

    def _ref_rot_left(self, x):
        y = x.right
        x.right = y.left
        y.left = x
        self._ref_fix(x)
        self._ref_fix(y)
        return y

    def _rebalance(self, node):
        self._ref_fix(node)
        bal = self._ref_balance(node)
        if bal > 1:
            if self._ref_balance(node.left) < 0:
                node.left = self._ref_rot_left(node.left)
            return self._ref_rot_right(node)
        if bal < -1:
            if self._ref_balance(node.right) > 0:
                node.right = self._ref_rot_right(node.right)
            return self._ref_rot_left(node)
        return node

    def insert(self, key, weight=1.0, payload=None):
        def rec(node):
            if node is None:
                return _Node(key, 1, None, payload)
            if key == node.key:
                raise DuplicateKeyError(key)
            if key < node.key:
                node.left = rec(node.left)
            else:
                node.right = rec(node.right)
            return self._rebalance(node)

        self._root = rec(self._root)
        self._n += 1

    def delete(self, key):
        if key not in self:
            raise MissingKeyError(key)

        def rec(node, target):
            if target == node.key:
                if node.left is None:
                    return node.right
                if node.right is None:
                    return node.left
                succ = node.right
                while succ.left is not None:
                    succ = succ.left
                node.key, node.payload = succ.key, succ.payload
                node.right = rec(node.right, succ.key)
            elif target < node.key:
                node.left = rec(node.left, target)
            else:
                node.right = rec(node.right, target)
            return self._rebalance(node)

        self._root = rec(self._root, key)
        self._n -= 1


@pytest.mark.parametrize("order", ["sorted", "reverse", "random"])
def test_avl_shapes_equal_the_recursive_reference(order):
    rng = random.Random(order)
    keys = {"sorted": list(range(1, 201)), "reverse": list(range(200, 0, -1)),
            "random": rng.sample(range(1, 2000), 200)}[order]
    t, ref = AVLTree(), _RecursiveAVL()
    for k in keys:
        t.insert(k, payload=b"%d" % k)
        ref.insert(k, payload=b"%d" % k)
        assert t.fingerprint() == ref.fingerprint()
    t.check_invariants()
    # delete down to empty, mostly at nodes with two children
    two_children = successor_is_right_child = 0
    while len(t):
        nodes = list(t._inorder())
        inner = [n for n in nodes if n.left is not None and n.right is not None]
        node = rng.choice(inner if inner and rng.random() < 0.8 else nodes)
        if node in inner:
            two_children += 1
            successor_is_right_child += node.right.left is None
        key = node.key
        t.delete(key)
        ref.delete(key)
        assert t.fingerprint() == ref.fingerprint()
        assert t.items() == ref.items()
        t.check_invariants()
    assert two_children >= 50 and successor_is_right_child >= 10


@pytest.mark.parametrize("seed", range(4))
def test_avl_random_trace_equals_the_recursive_reference(seed):
    rng = random.Random(seed)
    t, ref = AVLTree(), _RecursiveAVL()
    for _ in range(300):
        key = rng.randrange(48)
        before = t.fingerprint()
        if rng.random() < 0.55:
            if key in t:
                with pytest.raises(DuplicateKeyError):
                    t.insert(key)
                assert t.fingerprint() == before
                continue
            t.insert(key, payload=b"%d" % key)
            ref.insert(key, payload=b"%d" % key)
        else:
            if key not in t:
                with pytest.raises(MissingKeyError):
                    t.delete(key)
                assert t.fingerprint() == before
                continue
            t.delete(key)
            ref.delete(key)
        assert t.fingerprint() == ref.fingerprint()
        t.check_invariants()
    assert t.items() == ref.items()


def _mean_write_calls(cls, n, steps=256):
    """Mean Python function calls (profile ``call`` events, no clock) per
    insert and per delete on a tree held at about ``n`` random keys."""
    rng = random.Random(n)
    keys = rng.sample(range(10 * n + 10 * steps), n + steps)
    t = cls(1)
    for k in keys[:n]:
        t.insert(k)
    live = keys[:n]
    inserts = deletes = 0
    for k in keys[n:]:
        victim = live.pop(rng.randrange(len(live)))
        inserts += len(_frames(t.insert, k))
        deletes += len(_frames(t.delete, victim))
        live.append(k)
    return inserts / steps, deletes / steps


@pytest.mark.parametrize("cls, op", [(AVLTree, "insert"), (AVLTree, "delete"),
                                     (ZipZipTree, "insert"), (ZipZipTree, "delete"),
                                     (LTreap, "insert")])
def test_write_calls_do_not_grow_with_size(cls, op):
    # a write walks the tree in loops, not in a call per level
    index = ("insert", "delete").index(op)
    small = _mean_write_calls(cls, 64)[index]
    large = _mean_write_calls(cls, 4096)[index]
    assert large <= small + 2, (small, large)


# ------------------------------------------------------------ bulk load

def _random_entries(rng, n):
    keys = sorted(rng.sample(range(1, 10 * n + 1), n))
    return [(k, rng.choice([1e-6, 0.01, 0.3, 1.0, rng.random() + 1e-3]),
             rng.choice([None, b"p%d" % k])) for k in keys]


@pytest.mark.parametrize("cls", [ZipZipTree, LTreap, CTreap])
def test_load_sorted_equals_insert_build(cls):
    rng = random.Random(17)
    for n in (0, 1, 2, 5, 40, 300):
        entries = _random_entries(rng, n)
        built = cls(n)
        shuffled = list(entries)
        rng.shuffle(shuffled)
        for entry in shuffled:
            built.insert(*entry)
        loaded = cls(n)
        loaded.load_sorted(iter(entries))
        assert loaded.fingerprint() == built.fingerprint()
        assert len(loaded) == n
        loaded.check_invariants()
        # the loaded tree takes updates like any other
        if n:
            loaded.delete(entries[0][0])
            built.delete(entries[0][0])
            assert loaded.fingerprint() == built.fingerprint()


@pytest.mark.parametrize("cls", [ZipZipTree, LTreap, CTreap])
def test_load_sorted_rejects_bad_entries_and_changes_nothing(cls):
    cases = [
        ([(1, 0.5, None), (3, 0.5, None), (2, 0.5, None)], ValueError),
        ([(1, 0.5, None), (2, 0.5, None), (2, 0.25, b"x")], DuplicateKeyError),
        ([(1, 0.5, None), (2.0, 0.5, None)], TypeError),
    ]
    for entries, error in cases:
        t = cls(4)
        with pytest.raises(error):
            t.load_sorted(entries)
        assert len(t) == 0 and t.fingerprint() == cls(4).fingerprint()
    t = cls(4)
    t.insert(7, 0.5)
    before = t.fingerprint()
    with pytest.raises(ValueError):
        t.load_sorted([(1, 0.5, None)])
    assert len(t) == 1 and t.fingerprint() == before


def test_thresholded_dict_rejects_load_sorted():
    # the inherited load would check no capacity and skip the scheme step
    for make in (lambda: ThresholdedDict(4, 8), lambda: DynamicThresholdDict(4, scheme="whi")):
        d, fresh = make(), make()
        with pytest.raises(TypeError):
            d.load_sorted([(1, 0.5, None)])
        assert len(d) == 0 and d.N == fresh.N and d.fingerprint() == fresh.fingerprint()
    assert d.rng.getstate() == fresh.rng.getstate()


def test_paired_dict_rejects_load_sorted():
    # the inherited load would fill the fallback side alone
    d = PairedDict(4)
    with pytest.raises(TypeError):
        d.load_sorted([(1, 0.5, None)])
    assert len(d) == 0 and d.node_count() == 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400])
@pytest.mark.parametrize("cls", [ZipZipTree, LTreap, CTreap])
def test_non_finite_weight_rejected_before_any_change(cls, bad):
    # a NaN rank compares false both ways, so insertion order would pick
    # the shape; an infinite one ties or overflows, and so does an int
    # above the largest double, which no double rank holds
    t = cls(7)
    for k in (1, 2, 3):
        t.insert(k, 0.25)
    before = t.fingerprint()
    with pytest.raises(ValueError):
        t.insert(4, bad)
    assert len(t) == 3 and t.fingerprint() == before
    t = cls(7)
    with pytest.raises(ValueError):
        t.load_sorted([(1, 0.25, None), (2, bad, None)])
    assert len(t) == 0 and t.fingerprint() == cls(7).fingerprint()


def test_ltreap_keeps_zero_and_negative_priorities():
    t = LTreap(7)
    t.insert(1, 0.0)
    t.insert(2, -0.5)
    assert t.keys() == [1, 2]


def test_ltreap_rejects_an_int_estimate_a_double_cannot_hold():
    # the rank holds f as a double: ints it holds exactly order exactly,
    # and one it would round raises before the tree changes
    t = LTreap(7)
    for key, f in ((1, 2**53), (2, 2**53 + 2), (3, 2**60), (4, -(2**53) - 2)):
        t.insert(key, f)
    assert t._root.key == 3 and t._root.left.key == 2 and t._root.left.left.key == 1
    before = t.fingerprint()
    for bad in (2**53 + 1, -(2**53) - 1, 2**60 + 1):
        with pytest.raises(ValueError, match="exactly"):
            t.insert(5, bad)
    assert t.fingerprint() == before and len(t) == 4
    t.check_invariants()


# ----------------------------------------------------- duplicate inserts

def _search_path(t, key):
    path, cur = [], t._root
    while cur is not None:
        path.append(cur)
        if cur.key == key:
            return path
        cur = cur.left if key < cur.key else cur.right
    raise AssertionError("key %r not in tree" % (key,))


@pytest.mark.parametrize("make", [lambda: ThresholdedDict(9, 1024),
                                  lambda: DynamicThresholdDict(9, scheme="whi", scheme_seed=2)])
@pytest.mark.parametrize("where", ["above", "below"])
def test_duplicate_insert_leaves_no_trace(make, where):
    # "above": the re-insert at a larger f outranks the present node's
    # parent, so it would enter above the node and find it only while
    # unzipping.  "below": at a smaller f it would enter below the node,
    # which the descent reaches first.
    d = make()
    old_f, new_f = (0.0, 1.0) if where == "above" else (1.0, 0.0)
    for k in range(1, 200):
        d.insert(k, old_f, b"v%d" % k)

    def rank_at(key, f):
        return d._rank(key, f)

    def enters_above(key):
        path = _search_path(d, key)
        return len(path) > 1 and _wins(rank_at(key, new_f), key, path[-2].rank, path[-2].key)

    if where == "above":
        key = next(k for k in range(1, 200) if enters_above(k))
    else:
        key = 100
        assert rank_at(key, new_f) < _search_path(d, key)[-1].rank

    def state():
        rng = d.rng.getstate() if hasattr(d, "rng") else None
        freqs = {k: d.raw_frequency(k) for k in d.keys()}
        return d.fingerprint(), len(d), freqs, d.N, rng

    before = state()
    with pytest.raises(DuplicateKeyError):
        d.insert(key, new_f)
    assert state() == before
    d.check_invariants()


PATH_STRUCTURES = {
    "LTreap": lambda: LTreap(5),
    "CTreap": lambda: CTreap(5),
    "ZipZipTree": lambda: ZipZipTree(5),
    "ThresholdedDict": lambda: ThresholdedDict(5, 1024),
    "DynamicThresholdDict": lambda: DynamicThresholdDict(5, scheme="whi", scheme_seed=3),
    "PairedDict": lambda: PairedDict(5),
    "PairedDict-capacity": lambda: PairedDict(5, capacity=1024),
    "AVLTree": lambda: AVLTree(5),
}


@pytest.mark.parametrize("name, key_of", [(name, int) for name in sorted(PATH_STRUCTURES)]
                         + [("LTreap", lambda i: "%04d" % i)],
                         ids=sorted(PATH_STRUCTURES) + ["LTreap-str"])
def test_duplicates_and_missing_keys_on_a_right_leaning_path(name, key_of):
    # the paper bench's shape: keys in increasing order, f falling with the
    # key, so the L-treap is a right-leaning path.  A write descent finds a
    # present key after its loop, at the last right turn; each rejected
    # write must leave no trace.  Every f, halved or doubled, stays in
    # [0, 1] and above the thresholded dicts' floor weight.
    d = PATH_STRUCTURES[name]()
    present = [(key_of(i), 0.5 - i / 2000) for i in range(2, 601, 2)]
    # below, between (every tenth gap, down to the deepest) and above
    absent = [key_of(i) for i in [0, 1] + list(range(3, 601, 20)) + [599, 601, 1000]]

    def state():
        rng = d.rng.getstate() if hasattr(d, "rng") else None
        # each side's right spine by its keys, read from the nodes and from
        # the key list (an AVL tree keeps none)
        spines = [([node.key for node in t._spine], list(t._spine_keys))
                  for t in (d, getattr(d, "learned", None)) if t is not None]
        return d.fingerprint(), len(d), d.keys(), rng, spines

    def rejected(error, write, *args):
        with pytest.raises(error):
            write(*args)
        assert state() == before
        d.check_invariants()

    before = state()
    for key in absent[:3]:  # on the empty tree
        rejected(MissingKeyError, d.delete, key)
    for key, f in present:
        d.insert(key, f)
    if name == "LTreap":  # the largest key's search path holds every key
        assert len(_search_path(d, present[-1][0])) == len(present)
    ranked = d.learned if isinstance(d, PairedDict) else d
    before = state()
    for key, f in present:
        if not isinstance(d, AVLTree):
            rank = _search_path(ranked, key)[-1].rank
            assert ranked._rank(key, 2 * f) > rank == ranked._rank(key, f) > ranked._rank(key, f / 2)
        for g in (2 * f, f, f / 2):  # above, at and below the present rank
            rejected(DuplicateKeyError, d.insert, key, g)
    for key in absent:
        rejected(MissingKeyError, d.delete, key)


def test_ascending_ltreap_path_equals_its_sorted_build():
    # paper-check's shape at 10x its n: keys in key order, f falling with
    # the key, so the L-treap is a 20,000-node right path.  Every insert
    # attaches below the largest-key finger; a descent per insert would
    # walk about 2e8 levels
    n = 20_000
    entries = [(k, 1.0 / k, None) for k in range(1, n + 1)]
    t = LTreap(11)
    for key, f, payload in entries:
        t.insert(key, f, payload)
    loaded = LTreap(11)
    loaded.load_sorted(entries)
    assert t._spine[-1].key == loaded._spine[-1].key == n
    assert t._spine_keys == loaded._spine_keys == list(range(1, n + 1))
    assert [node.key for node in t._spine] == t._spine_keys
    assert t.fingerprint() == loaded.fingerprint()
    depth, cur = 0, t._root
    while cur is not None:
        assert cur.left is None
        depth, cur = depth + 1, cur.right
    assert depth == n


def test_node_count_tracks_updates():
    for cls in (ZipZipTree, AVLTree, LTreap, CTreap):
        t = cls(0)
        assert t.node_count() == 0
        for k in range(1, 11):
            t.insert(k, 0.5)
        assert t.node_count() == 10
        for k in range(1, 4):
            t.delete(k)
        assert t.node_count() == 7


# ----------------------------------------------------------- property tests

@pytest.mark.parametrize("make, bound", [
    (lambda: ZipZipTree(3), 108),
    (lambda: PairedDict(3), 214),
    (lambda: ThresholdedDict(3, 10_000), 108),
    (lambda: DynamicThresholdDict(3, scheme="whi", scheme_seed=1), 108),
    (lambda: AVLTree(3), 82),
], ids=["zipzip", "paired", "threshold", "dynamic-whi", "avl"])
def test_bytes_per_key(make, bound):
    # what a 10,000-key tree allocates per key, its keys and weights not
    # counted: a zip-zip node holds its rank as one 24-byte double, where
    # the packed int took 32-36 bytes and the pair more
    n = 10_000
    keys = random.Random(4).sample(range(10**9), n)
    weights = [(i + 1) / n for i in range(n)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        d = make()
        for key, w in zip(keys, weights):
            d.insert(key, w)
        per_key = (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        tracemalloc.stop()
    assert len(d) == n
    assert per_key <= bound, per_key


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 64), unique=True, min_size=1, max_size=32),
       st.randoms(use_true_random=False))
def test_unique_representation_property(keys, rnd):
    shuffled = list(keys)
    rnd.shuffle(shuffled)
    a = build(ZipZipTree, 99, sorted(keys))
    b = build(ZipZipTree, 99, shuffled)
    assert a.fingerprint() == b.fingerprint()
    a.check_invariants()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 40), st.floats(0.001, 1.0)),
                unique_by=lambda kv: kv[0], min_size=1, max_size=24))
def test_bst_heap_invariants_hold(entries):
    for cls in (ZipZipTree, LTreap, CTreap):
        t = cls(5)
        for k, w in entries:
            t.insert(k, w)
        t.check_invariants()
        assert sorted(k for k, _ in entries) == t.keys()


# ------------------------------------------------------------- key domain

KEYED_STRUCTURES = {
    "ZipZipTree": lambda: ZipZipTree(3),
    "LTreap": lambda: LTreap(3),
    "CTreap": lambda: CTreap(3),
    "ThresholdedDict": lambda: ThresholdedDict(3, 8),
    "PairedDict": lambda: PairedDict(3),
    "DynamicThresholdDict": lambda: DynamicThresholdDict(3, scheme="whi", scheme_seed=1),
}


@pytest.mark.parametrize("name", sorted(KEYED_STRUCTURES))
def test_unsupported_key_types_rejected_before_any_change(name):
    # 1.0, True and numpy's 1 equal the int key 1 in the tree but would hash
    # to other ranks; they are rejected, not taken as 1 or as a new key
    s = KEYED_STRUCTURES[name]()
    for k in (1, 2, 3):
        s.insert(k, 0.25)

    def state():
        rng = s.rng.getstate() if hasattr(s, "rng") else None
        return len(s), s.fingerprint(), rng

    before = state()
    for bad in (1.0, True, np.int64(1)):
        with pytest.raises(TypeError):
            s.insert(bad, 0.25)
        assert state() == before
        with pytest.raises(TypeError):
            s.delete(bad)
        assert state() == before
