"""Every read equals the root walk, whether it starts at the root or
partway down the right spine.

``search``, ``predecessor`` and ``range_query`` on a spine of more than
``_SPINE_BISECT`` (64) nodes bisect the spine's keys and start at the first
spine node their root descent would not pass, counting the nodes they
skipped; on a shorter spine they start at the root.  ``search_budgeted``
and the paired search always start at the root.  The reference here is the
plain descent from the root, written out in the test: for every held key,
every gap between keys and keys below and above all of them, the replies
and the comparison counts of ``search``, ``search_budgeted`` (every budget
from 1 to depth + 1), ``predecessor``, ``range_query`` with a tally and
``in`` must match it.  A paired search must match its two root walks, the
learned side's to the budget and then the fallback's; ``search_budgeted``
on the learned side followed by ``_BST.search`` on the fallback; and the
engine's ``_BST.search`` on each side, which bisects a long spine.
Which reads bisect is pinned by counting the calls of ``bisect_left``.
"""

import math
import random
from bisect import bisect_left

import pytest

import hidict.structures
import hidict.workloads as hw
from hidict.bench import make_structure
from hidict.core import ComparisonTally
from hidict.dynamics import DynamicThresholdDict
from hidict.pairing import PairedDict
from hidict.structures import AVLTree, CTreap, LTreap, ZipZipTree, _BST
from hidict.thresholding import ThresholdedDict


def _walk(t, key):
    """The root descent's path to ``key``, and whether it ends at it."""
    path, cur = [], t._root
    while cur is not None:
        path.append(cur)
        if key == cur.key:
            return path, True
        cur = cur.left if key < cur.key else cur.right
    return path, False


def _search(t, key):
    path, found = _walk(t, key)
    return found, len(path), path[-1].payload if found else None


def _budgeted(walked, budget):
    # one comparison per node, spent before the node is reached: a budget
    # below the path's length runs out at the budget
    if walked[1] > budget:
        return (False, budget, None), True
    return walked, False


def _predecessor(t, key):
    best, cur = None, t._root
    while cur is not None:
        if cur.key < key:
            best, cur = cur.key, cur.right
        else:
            cur = cur.left
    return best


def _range(t, lo, hi):
    # every node whose key the walk compares, and the keys in [lo, hi]; a
    # node in range is visited, then emitted after its left subtree
    out, count = [], 0
    stack = [(t._root, False)]
    while stack:
        node, emit = stack.pop()
        if node is None:
            continue
        if emit:
            out.append(node.key)
            continue
        count += 1
        if node.key < lo:
            stack.append((node.right, False))
        elif node.key > hi:
            stack.append((node.left, False))
        else:
            stack += [(node.right, False), (node, True), (node.left, False)]
    return out, count


def _depth(t):
    depth, level = 0, [t._root] if t._root is not None else []
    while level:
        depth += 1
        level = [c for node in level for c in (node.left, node.right) if c is not None]
    return depth


def _probes(keys, gap, below, above):
    """Every key, a key in every gap, and keys below and above them all."""
    probes = [below, above]
    for key in keys:
        probes += [key, gap(key)]
    return probes


def _assert_reads_equal_root_walk(t, probes, every_budget=True):
    """``t``'s reads against the reference descents; for a deep tree,
    ``every_budget=False`` tries every budget on every 25th probe and the
    budgets at each probe's turning points on the rest.  The searches are
    called through ``_BST``, so a paired dict is checked as the fallback
    tree it is."""
    depth = _depth(t)
    for n, key in enumerate(probes):
        walked = _search(t, key)
        res = _BST.search(t, key)
        assert (res.found, res.comparisons, res.payload) == walked, key
        assert (key in t) == walked[0], key
        assert t.predecessor(key) == _predecessor(t, key), key
        if every_budget or n % 25 == 0:
            budgets = range(1, depth + 2)
        else:
            length = walked[1]
            budgets = {b for b in (1, 2, length - 1, length, length + 1, depth, depth + 1)
                       if 1 <= b <= depth + 1}
        for budget in budgets:
            res, exhausted = _BST.search_budgeted(t, key, budget)
            got = (res.found, res.comparisons, res.payload), exhausted
            assert got == _budgeted(walked, budget), (key, budget)
    for lo, hi in zip(probes, probes[2:] + probes[:2]):
        lo, hi = min(lo, hi), max(lo, hi)
        tally = ComparisonTally()
        got = t.range_query(lo, hi, tally)
        assert (got, tally.count) == _range(t, lo, hi), (lo, hi)


def _int_probes(t):
    # held keys are multiples of 3, so key + 1 lies in a gap
    return _probes(t.keys(), lambda k: k + 1, -1, 10 ** 9)


def test_paper_check_ltreap_path():
    # paper-check's L-treap: Zipf predictions fall with the key, so keys
    # 1..2000 make a 2000-node right path, all of it spine
    n = 2000
    spec = hw.WorkloadSpec("zipfian", n, 1.0, 0.0, 100_000)
    pred = hw.assigned_frequencies(spec).tolist()
    t = LTreap(7)
    for key in range(1, n + 1):
        t.insert(key, pred[key - 1], b"p%d" % key)
    assert t._spine_keys == list(range(1, n + 1))
    probes = _probes(t.keys(), lambda k: k + 0.5, 0, n + 1)
    _assert_reads_equal_root_walk(t, probes, every_budget=False)
    # the costs of a search: k comparisons for key k, as the paper counts
    assert [t.search(k).comparisons for k in (1, 1000, n)] == [1, 1000, n]
    assert t.search(n + 1).comparisons == n


def _history(t, seed, steps, f_of, check_every=40):
    """A seeded insert/delete history over keys that are multiples of 3,
    with the reads checked against the root walk along the way."""
    rng = random.Random(seed)
    live = set()
    for step in range(steps):
        key = 3 * rng.randint(1, 150)
        if key in live and rng.random() < 0.6:
            t.delete(key)
            live.discard(key)
        elif key not in live:
            t.insert(key, f_of(key, rng), b"v%d" % key)
            live.add(key)
        if step % check_every == 0:
            t.check_invariants()
            sides = (t, t.learned) if isinstance(t, PairedDict) else (t,)
            for side in sides:
                _assert_reads_equal_root_walk(side, _int_probes(side))
    assert sorted(live) == t.keys()
    return t


def _f(key, rng):
    # mostly falling with the key, as in paper-check, so the L-treap's and
    # the biased trees' spines run long
    if rng.random() < 0.9:
        return 1.0 / (key + 1)
    return rng.choice([1e-4, 0.01, 0.2]) * rng.random() + 1e-6


HISTORIES = {
    "zipzip": lambda: ZipZipTree(4),
    "biased-zipzip": lambda: ZipZipTree(4),
    "c-treap": lambda: CTreap(4),
    "l-treap": lambda: LTreap(4),
    "threshold": lambda: ThresholdedDict(4, 1000),
    "dynamic-whi": lambda: DynamicThresholdDict(4, scheme="whi", scheme_seed=2),
    "dynamic-amortized": lambda: DynamicThresholdDict(4, scheme="amortized", scheme_seed=2),
    "paired": lambda: PairedDict(4),
    "paired-capacity": lambda: PairedDict(4, capacity=1000),
}


@pytest.mark.parametrize("name", sorted(HISTORIES))
def test_reads_after_seeded_histories(name):
    f_of = (lambda key, rng: 1.0) if name == "zipzip" else _f
    t = _history(HISTORIES[name](), "spine-%s" % name, 400, f_of)
    sides = (t, t.learned) if isinstance(t, PairedDict) else (t,)
    for side in sides:
        _assert_reads_equal_root_walk(side, _int_probes(side))


def _two_root_walks(d, key, budget):
    # the learned side within the budget, then the fallback from its root
    (found, comps, payload), exhausted = _budgeted(_search(d.learned, key), budget)
    if exhausted:
        found, extra, payload = _search(d, key)
        comps += extra
    return found, comps, payload


def _composed(d, key, budget):
    # the learned side's ``search_budgeted``, then the fallback's
    # ``_BST.search``, charged the learned side's comparisons
    res, exhausted = d.learned.search_budgeted(key, budget)
    if res.found or not exhausted:
        return res.found, res.comparisons, res.payload
    fallback = _BST.search(d, key)
    return fallback.found, res.comparisons + fallback.comparisons, fallback.payload


def _engine(d, key, budget):
    # the engine's searches, which bisect a spine longer than
    # ``_SPINE_BISECT``: the learned side's reply when it costs at most
    # the budget, else the fallback's, charged the budget
    res = _BST.search(d.learned, key)
    if res.comparisons > budget:
        res = _BST.search(d, key)
        return res.found, budget + res.comparisons, res.payload
    return res.found, res.comparisons, res.payload


def _assert_paired_searches(d, probes):
    budget = d.search_budget()
    for key in probes:
        res = d.search(key)
        got = (res.found, res.comparisons, res.payload)
        assert got == _two_root_walks(d, key, budget) == _composed(d, key, budget), key
        assert got == _engine(d, key, budget), key


def test_paired_search_equals_its_two_root_walks():
    d = _history(PairedDict(6, gamma=0.5), "paired-search", 300, _f)
    _assert_paired_searches(d, _int_probes(d))


def _learned_spine_pair(budget, bisect_past, monkeypatch):
    """An uncapped pair of keys 3k, k = 1..200, at f = 2**-k: the learned
    side's spine runs long.  Its gamma makes ``budget`` the search budget;
    the engine's reads, the paired search's reference, bisect a spine
    longer than ``bisect_past``."""
    monkeypatch.setattr(hidict.structures, "_SPINE_BISECT", bisect_past)
    d = PairedDict(6, gamma=(budget + 0.5) / math.log2(200))
    for k in range(1, 201):
        d.insert(3 * k, 2.0 ** -k, b"v%d" % k)
    assert d.search_budget() == budget
    return d


# 64 is the library's bound; past 0, the engine's reference searches start
# on the spine on both sides, while the paired search walks from the roots
@pytest.mark.parametrize("bisect_past", [64, 0])
def test_paired_search_on_a_long_learned_spine(monkeypatch, bisect_past):
    d = _learned_spine_pair(1, bisect_past, monkeypatch)
    spine = len(d.learned._spine_keys)
    assert spine > 64
    depth = _depth(d.learned)
    probes = _int_probes(d)
    # the spine nodes each probe's learned walk turns right at; the learned
    # side does not depend on gamma
    turns = [bisect_left(d.learned._spine_keys, key) for key in probes]
    for budget in (1, 2, 7, spine // 2, spine - 1, spine, spine + 1, depth, depth + 1):
        d = _learned_spine_pair(budget, bisect_past, monkeypatch)
        # probes turn at fewer spine nodes than the budget, at as many, and
        # at more, as far as the spine reaches
        sides = {(t > budget) - (t < budget) for t in turns}
        assert sides == ({-1, 0, 1} if budget < spine else {-1, 0} if budget == spine else {-1})
        _assert_paired_searches(d, probes)


@pytest.mark.parametrize("bisect_past", [64, 0])
@pytest.mark.parametrize("capacity", [None, 8])
@pytest.mark.parametrize("held", [(), (3,)])
def test_paired_search_on_empty_and_one_key_pairs(monkeypatch, held, capacity, bisect_past):
    monkeypatch.setattr(hidict.structures, "_SPINE_BISECT", bisect_past)
    for gamma in (0.5, 1.0, 3.82):
        d = PairedDict(6, gamma=gamma, capacity=capacity)
        for key in held:
            d.insert(key, 0.5, b"one")
        _assert_paired_searches(d, [-1, 0, 3, 4, 10 ** 9])


def test_avl_reads_from_the_root():
    t = AVLTree(0)
    rng = random.Random(5)
    keys = rng.sample(range(3, 3000, 3), 300)
    for key in keys:
        t.insert(key, 1.0, b"a%d" % key)
    for key in keys[::3]:
        t.delete(key)
    assert t._spine == t._spine_keys == ()
    _assert_reads_equal_root_walk(t, _int_probes(t))


@pytest.mark.parametrize("make", [ZipZipTree, LTreap, CTreap, AVLTree,
                                  lambda seed: ThresholdedDict(seed, 8),
                                  lambda seed: DynamicThresholdDict(seed),
                                  lambda seed: PairedDict(seed)],
                         ids=["zipzip", "l-treap", "c-treap", "avl", "threshold",
                              "dynamic", "paired"])
def test_empty_tree_reads(make):
    t = make(3)
    for key in (-5, 0, 7):
        assert (t.search(key).found, t.search(key).comparisons) == (False, 0)
        res, exhausted = _BST.search_budgeted(t, key, 1)
        assert (res.found, res.comparisons, exhausted) == (False, 0, False)
        assert key not in t
        assert t.predecessor(key) is None
        tally = ComparisonTally()
        assert t.range_query(key, key + 1, tally) == [] and tally.count == 0


@pytest.mark.parametrize("kind", ["str", "bytes"])
@pytest.mark.parametrize("make", [ZipZipTree, LTreap, CTreap], ids=["zipzip", "l-treap",
                                                                     "c-treap"])
def test_str_and_bytes_keys(kind, make):
    enc = (lambda s: s) if kind == "str" else (lambda s: s.encode())
    rng = random.Random("%s-%s" % (kind, make.__name__))
    t = make(2)
    live = {}
    for _ in range(300):
        key = enc("k%03d" % rng.randint(0, 120))
        if key in live:
            t.delete(key)
            del live[key]
        else:
            # f falling with the key makes long spines in the L-treap
            f = 1.0 / (1 + int(key[1:])) if rng.random() < 0.7 else rng.random() + 1e-3
            t.insert(key, f, b"s")
            live[key] = f
    t.check_invariants()
    probes = _probes(t.keys(), lambda k: k + enc("!"), enc(""), enc("~"))
    _assert_reads_equal_root_walk(t, probes)


def _right_path(n):
    # f falling with the key makes the L-treap of keys 1..n a right path
    t = LTreap(9)
    for key in range(1, n + 1):
        t.insert(3 * key, 1.0 / key, b"r%d" % key)
    assert t._spine_keys == [3 * key for key in range(1, n + 1)]
    return t


@pytest.mark.parametrize("n", [64, 65])
def test_right_paths_on_both_sides_of_the_bisection_bound(n):
    # a 64-node spine is read from the root, a 65-node one by bisection
    t = _right_path(n)
    _assert_reads_equal_root_walk(t, _int_probes(t))


def _counting_bisect(monkeypatch):
    calls = []

    def counting(keys, key):
        calls.append(key)
        return bisect_left(keys, key)

    monkeypatch.setattr(hidict.structures, "bisect_left", counting)
    return calls


def _reads(t, key):
    return [lambda: t.search(key), lambda: t.predecessor(key),
            lambda: t.range_query(key, key + 10)]


def _paper_check_tree(name):
    # paper-check's trees: keys 1..2000 under falling Zipf predictions
    n = 2000
    pred = hw.assigned_frequencies(hw.WorkloadSpec("zipfian", n, 1.0, 0.0, 100_000)).tolist()
    t = make_structure(name, 7, n)
    learned = name not in ("avl", "zipzip")
    for key in range(1, n + 1):
        t.insert(key, pred[key - 1] if learned else 1.0)
    return t


@pytest.mark.parametrize("name", ["zipzip", "biased-zipzip", "threshold-zipzip",
                                  "paired-zipzip", "c-treap", "avl"])
def test_balanced_trees_read_from_the_root(monkeypatch, name):
    t = _paper_check_tree(name)
    sides = (t, t.learned) if isinstance(t, PairedDict) else (t,)
    assert all(len(side._spine_keys) <= 64 for side in sides)
    calls = _counting_bisect(monkeypatch)
    for key in (-1, 1, 2, 17, 1000, 1999, 2000, 2001):
        for read in _reads(t, key):
            read()
        assert (key in t) == (1 <= key <= 2000)
    assert calls == []
    if name != "avl":
        # writes keep their bisection, which the spine update needs: a
        # paired delete bisects on each side
        t.delete(1000)
        assert calls == [1000] * len(sides)


@pytest.mark.parametrize("n", [64, 65, 2000])
def test_right_paths_bisect_once_per_read_past_64_keys(monkeypatch, n):
    t = _right_path(n)
    calls = _counting_bisect(monkeypatch)
    for key in (0, 3, 3 * (n // 2), 3 * (n // 2) + 1, 3 * n, 3 * n + 1):
        for read in _reads(t, key):
            before = len(calls)
            read()
            assert len(calls) == before + (n > 64), key


@pytest.mark.parametrize("budget", [1, 5, 100, 10 ** 6])
def test_budgeted_walks_never_bisect(monkeypatch, budget):
    # the 2,000-node right path, and the learned side of the 200-key pair,
    # whose spine passes 64: their reads bisect once each, while a
    # budgeted walk and a paired search start at the root
    path = _right_path(2000)
    d = _learned_spine_pair(budget, 64, monkeypatch)
    assert len(d.learned._spine_keys) > 64 >= len(d._spine_keys)
    calls = _counting_bisect(monkeypatch)
    for t in (path, d.learned):
        for key in (0, 3, 300, 301, 600, 601, 6000, 6001):
            for read in _reads(t, key):
                before = len(calls)
                read()
                assert len(calls) == before + 1, key
            _BST.search_budgeted(t, key, budget)
            _BST.search_budgeted(d, key, budget)
            d.search(key)
            assert len(calls) == before + 1, key
