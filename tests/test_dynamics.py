import hashlib
import math
import random
import sys
from collections import Counter

import pytest
from scipy import stats

import hidict.structures
from hidict.core import CapacityError, DuplicateKeyError, MissingKeyError, keyed_hasher
from hidict.dynamics import (
    AMORTIZED_INITIAL_CUTOFF,
    CutoffSimulator,
    DynamicThresholdDict,
    WHI_INITIAL_CUTOFF,
    amortized_after_delete,
    amortized_after_insert,
    counterexample_structures,
    whi_after_delete,
    whi_before_insert,
)
from hidict.pairing import PairedDict
from hidict.structures import ZipZipTree
from hidict.thresholding import ThresholdedDict, threshold
from hidict.workloads import zipf_frequencies


# ------------------------------------------------------- amortized scheme

@pytest.mark.parametrize("n,N,rebuild,new", [
    (4, 4, True, 16),
    (3, 4, False, None),
    (16, 16, True, 256),
])
def test_amortized_after_insert(n, N, rebuild, new):
    new_N = amortized_after_insert(n, N)
    assert (new_N is not None, new_N) == (rebuild, new)


@pytest.mark.parametrize("n,N,rebuild,new", [
    (2, 16, True, 4),
    (3, 16, False, None),
    (4, 256, True, 16),
])
def test_amortized_after_delete(n, N, rebuild, new):
    new_N = amortized_after_delete(n, N)
    assert (new_N is not None, new_N) == (rebuild, new)


def test_counterexample_trace():
    x, y = counterexample_structures()
    assert (x.n, x.N) == (3, 16)
    assert (y.n, y.N) == (3, 4)


def test_counterexample_contents_equal_but_fingerprints_differ():
    x, y = counterexample_structures(seed=5)
    assert sorted(x.keys()) == sorted(y.keys()) == [1, 2, 3]
    assert x.fingerprint() != y.fingerprint()
    # the divergence is real: thresholds 1/32 vs 1/8 move the rank floor
    wx = {n.key: threshold(n.weight, x.N) for n in _nodes(x)}
    wy = {n.key: threshold(n.weight, y.N) for n in _nodes(y)}
    assert wx[1] == 1.0 / 32 and wy[1] == 1.0 / 8


def _nodes(d):
    out, stack = [], [d._root]
    while stack:
        node = stack.pop()
        if node is None:
            continue
        out.append(node)
        stack.append(node.left)
        stack.append(node.right)
    return out


# ------------------------------------------------------------- WHI scheme

def test_whi_insert_at_cutoff_uniform_range():
    rng = random.Random(1)
    counts = Counter()
    for _ in range(100_000):
        new_N = whi_before_insert(8, 8, rng.random(), rng.random())
        assert 9 <= new_N <= 17
        counts[new_N] += 1
    # chi-square against uniform over the 9 admissible values
    _, p = stats.chisquare(list(counts[v] for v in range(9, 18)))
    assert p > 0.001


def test_whi_insert_below_cutoff_probabilities():
    rng = random.Random(2)
    counts = Counter()
    for _ in range(90_000):
        counts[whi_before_insert(8, 12, rng.random(), rng.random())] += 1
    assert counts[16] / 90_000 == pytest.approx(1 / 9, abs=0.01)
    assert counts[17] / 90_000 == pytest.approx(1 / 9, abs=0.01)
    assert counts[None] / 90_000 == pytest.approx(7 / 9, abs=0.01)


def test_whi_first_insert_degenerate_range():
    for u in (0.0, 0.5, 0.999):
        assert whi_before_insert(0, WHI_INITIAL_CUTOFF, u, u) == 1


def test_whi_delete_resize_branch():
    rng = random.Random(3)
    counts = Counter()
    for _ in range(40_000):
        new_N = whi_after_delete(4, 10, rng.random())
        assert 4 <= new_N <= 7
        counts[new_N] += 1
    _, p = stats.chisquare([counts[v] for v in range(4, 8)])
    assert p > 0.001


def test_whi_delete_probabilistic_branch():
    rng = random.Random(4)
    hits = sum(
        whi_after_delete(6, 10, rng.random()) is not None
        for _ in range(60_000)
    )
    assert hits / 60_000 == pytest.approx(1 / 6, abs=0.01)
    assert whi_after_delete(6, 10, 0.0) == 6


def test_whi_delete_degenerate():
    assert whi_after_delete(1, 2, 0.9) == 1
    with pytest.raises(ValueError):
        whi_after_delete(0, 2, 0.5)


def test_whi_range_invariant_over_random_traces():
    # n <= N <= 2(n+1)-1 after every operation
    rng = random.Random(5)
    sim = CutoffSimulator("whi", random.Random(6))
    for _ in range(20_000):
        if sim.n == 0 or rng.random() < 0.55:
            sim.insert()
        else:
            sim.delete()
        if sim.n > 0:
            assert sim.n <= sim.N <= 2 * (sim.n + 1) - 1


def test_whi_cutoff_marginal_is_uniform():
    # N | n is uniform on {n, ..., 2n-1} regardless of history
    n = 12
    counts = Counter()
    for i in range(40_000):
        sim = CutoffSimulator("whi", random.Random(1_000_000 + i))
        for _ in range(n):
            sim.insert()
        counts[sim.N] += 1
    assert sorted(counts) == list(range(n, 2 * n))
    _, p = stats.chisquare([counts[v] for v in range(n, 2 * n)])
    assert p > 0.001


def test_expected_update_cost_logarithmic():
    # rebuild key-moves per operation stay within 8*log2(n) at n ~ 1000
    sim = CutoffSimulator("whi", random.Random(7))
    for _ in range(1000):
        sim.insert()
    sim.key_moves = sim.operations = sim.rebuilds = 0
    rng = random.Random(8)
    for _ in range(20_000):
        if sim.n <= 900 or (sim.n < 1100 and rng.random() < 0.5):
            sim.insert()
        else:
            sim.delete()
    assert sim.key_moves / sim.operations <= 8 * math.log2(1000)


def test_schemes_never_rebuild_below_the_size():
    # a rebuild refuses N < n, so no scheme step may ask for one: churn
    # both schemes through growth, shrinkage and emptying.  A due rebuild
    # ends its step, so N >= n after every step covers every rebuild.
    rebuilds = 0
    for scheme in ("whi", "amortized"):
        for seed in range(40):
            sim = CutoffSimulator(scheme, random.Random(seed))
            rng = random.Random(~seed)
            for step in range(3000):
                grow = (0.8, 0.4, 0.0)[(step // 500) % 3]
                if not sim.n or rng.random() < grow:
                    sim.insert()
                else:
                    sim.delete()
                assert sim.N >= sim.n, (scheme, seed, step)
            rebuilds += sim.rebuilds
    assert rebuilds > 10_000


# ------------------------------------------------- dynamic threshold dict

def test_rebuild_determinism():
    def make():
        d = DynamicThresholdDict(3, scheme="whi", scheme_seed=11)
        for k in range(1, 20):
            d.insert(k, 1.0 / 32)
        return d

    a, b = make(), make()
    a.rebuild(40)
    b.rebuild(40)
    assert a.fingerprint() == b.fingerprint()


def test_rebuild_rethresholds_weights():
    d = DynamicThresholdDict(0, scheme="whi")
    d.insert(1, 0.0)
    d.rebuild(16)
    weights = {n.key: threshold(n.weight, d.N) for n in _nodes(d)}
    assert weights[1] == 1.0 / 32  # max(0, 1/(2*16))


class _CountingHasher:
    """Stands in for a tree's keyed hasher and counts the copies ranks take."""

    def __init__(self, hasher):
        self.hasher = hasher
        self.copies = 0

    def copy(self):
        self.copies += 1
        return self.hasher.copy()


def test_rebuild_equals_fresh_sorted_build(monkeypatch):
    # 1/(2N) crosses powers of two between neighbouring N, so the floor
    # weight's rank level moves up and down across the sequence
    cutoffs = [1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 1023, 1024, 1025, 5, 300, 2]
    encoded = []
    real_key_bytes = hidict.structures._key_bytes

    def counting_key_bytes(key):
        encoded.append(key)
        return real_key_bytes(key)

    rng = random.Random(31)
    for case in range(12):
        d = DynamicThresholdDict(case, scheme="whi", scheme_seed=case)
        freqs = {}
        for k in rng.sample(range(1, 5000), rng.randint(0, 150)):
            freqs[k] = rng.choice([0.0, 1e-9, 1e-4, 0.05, rng.random(), 1.0])
            d.insert(k, freqs[k], rng.choice([None, b"p%d" % k]))
        payloads = dict(d.items())
        # a rank through the tree copies its hasher; any rank, zz_rank's
        # too, encodes its key
        d._hasher = hasher = _CountingHasher(d._hasher)
        for N in cutoffs:
            nodes = list(d._inorder())
            before = (d.N, d.fingerprint())
            refused = N < len(d)
            monkeypatch.setattr(hidict.structures, "_key_bytes", counting_key_bytes)
            if refused:
                with pytest.raises(CapacityError):
                    d.rebuild(N)
            else:
                d.rebuild(N)
            monkeypatch.undo()
            assert (encoded, hasher.copies) == ([], 0)
            # relinked in place: the same node objects, none allocated
            assert all(a is b for a, b in zip(nodes, d._inorder()))
            if refused:
                assert (d.N, d.fingerprint()) == before
                continue
            ref = ZipZipTree(case)
            for k in sorted(freqs):
                ref.insert(k, threshold(freqs[k], N), payloads[k])
            assert d.fingerprint() == d.header() + ref.fingerprint()
            assert d.N == N and len(d) == len(freqs)
            d.check_invariants()


def _floor_level(N):
    return math.floor(math.log2(threshold(0.0, N)))


def _boundary_frequencies():
    # 0, 1, exact powers of two and their neighbours, around every floor
    # 1/(2N) the cutoffs below reach
    out = {0.0, 1.0, math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0)}
    for e in range(1, 14):
        p = 2.0 ** -e
        out.update((p, math.nextafter(p, 0.0), math.nextafter(p, 1.0)))
    return sorted(out)


def _rebuild_equals_fresh_build(d, seed, freqs, N):
    """Rebuild ``d``, holding key k at freqs[k] for k in ``freqs``, at N;
    compare it with a fresh build at N and check that a rank that does not
    move keeps its object."""
    was, now = _floor_level(d.N), _floor_level(N)
    ranks = {node.key: node.rank for node in d._inorder()}
    d.rebuild(N)
    ref = ZipZipTree(seed)
    for k in sorted(freqs):
        ref.insert(k, threshold(freqs[k], N))
    assert d.fingerprint() == d.header() + ref.fingerprint(), (N, was, now)
    for node in d._inorder():
        if was == now or node.weight / 2 >= 2.0 ** max(was, now):
            assert node.rank is ranks[node.key], (N, node.weight)
    d.check_invariants()


def test_rebuild_boundaries_equal_fresh_build_and_keep_unmoved_ranks():
    cutoffs = [1]
    for k in range(1, 12):
        cutoffs += [2 ** k - 1, 2 ** k, 2 ** k + 1]
    cutoffs += [3, 2048, 2, 1025, 1, 64, 63, 65, 4095, 5, 1]
    freqs = dict(enumerate(_boundary_frequencies()))
    levels = set()
    for seed in range(3):
        d = DynamicThresholdDict(seed, scheme="whi", scheme_seed=seed)
        for k, f in freqs.items():
            d.insert(k, f)
        for N in cutoffs:
            levels.add(_floor_level(N))
            if N >= len(d):
                _rebuild_equals_fresh_build(d, seed, freqs, N)
                continue
            before = (d.N, d.fingerprint())
            with pytest.raises(CapacityError):
                d.rebuild(N)
            assert (d.N, d.fingerprint()) == before
            # the refused rebuild, from the same cutoff, on chunks of at
            # most N of the keys
            for start in range(0, len(freqs), N):
                chunk = {k: freqs[k] for k in range(start, min(start + N, len(freqs)))}
                small = DynamicThresholdDict(seed, scheme="whi", scheme_seed=seed)
                for k, f in chunk.items():
                    small.insert(k, f)
                small.rebuild(d.N)
                _rebuild_equals_fresh_build(small, seed, chunk, N)
    # every floor level from -1 to -13 gets a real rebuild
    assert levels == set(range(-13, 0))


def _rebuild_calls(d, N):
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    d.rebuild(N)
    sys.setprofile(None)
    return calls


def test_rebuild_calls_only_what_the_new_cutoff_moves():
    # Python calls per rebuild (profile ``call`` events, no clock) on n
    # keys drawn from a Zipf universe of 4n, as in churn-whi; a key whose
    # f/2 lies between the old and the new floor costs a zz_rerank
    same_level = {}
    for n in (64, 4096):
        freqs = zipf_frequencies(4 * n, 1.0).tolist()
        d = ThresholdedDict(1, 2 * n)
        for k in random.Random(n).sample(range(4 * n), n):
            d.insert(k, freqs[k])
        # 1/(2(2n-1)) and 1/(4n) share a floor level; 1/(8n) and 1/(2n) do not
        assert _floor_level(2 * n - 1) == _floor_level(2 * n)
        same_level[n] = _rebuild_calls(d, 2 * n - 1)
        for N in (4 * n, n):
            assert _floor_level(N) != _floor_level(d.N)
            assert _rebuild_calls(d, N) <= 2 * n, (n, N)
    assert same_level[64] == same_level[4096] <= 8, same_level


def test_post_rebuild_weight_sum():
    rng = random.Random(9)
    d = DynamicThresholdDict(0, scheme="whi", scheme_seed=1)
    raw = [rng.random() for _ in range(50)]
    scale = sum(raw)
    for k in range(1, 51):
        d.insert(k, raw[k - 1] / scale)
    d.rebuild(d.n)  # smallest admissible cutoff
    assert sum(threshold(n.weight, d.N) for n in _nodes(d)) <= 1.0 + 1e-9


def test_dynamic_dict_tracks_scheme_invariant():
    d = DynamicThresholdDict(1, scheme="whi", scheme_seed=2)
    rng = random.Random(10)
    present = set()
    for _ in range(400):
        if not present or rng.random() < 0.6:
            k = rng.randint(1, 500)
            if k not in present:
                d.insert(k, 0.0)
                present.add(k)
        else:
            k = rng.choice(sorted(present))
            d.delete(k)
            present.discard(k)
        assert sorted(present) == d.keys()
        if d.n > 0:
            assert d.n <= d.N <= 2 * (d.n + 1) - 1
    if d.n:
        assert d.search(d.keys()[0]).found


def test_dynamic_dict_empty_reset():
    d = DynamicThresholdDict(1, scheme="whi", scheme_seed=0)
    d.insert(1, 0.5)
    d.delete(1)
    assert d.N == WHI_INITIAL_CUTOFF
    a = DynamicThresholdDict(2, scheme="amortized")
    a.insert(1, 0.5)
    a.delete(1)
    assert a.N == AMORTIZED_INITIAL_CUTOFF
    # grown past n == N and emptied: the shrink rules end at N = 2 for
    # n = 1, so only the reset brings N back
    sim = CutoffSimulator("amortized", random.Random(0))
    for k in range(1, 5):
        a.insert(k, 0.5)
        sim.insert()
    assert a.N == sim.N == 16
    for k in range(1, 5):
        a.delete(k)
        sim.delete()
    assert a.N == sim.N == AMORTIZED_INITIAL_CUTOFF
    # an empty simulator has nothing to delete and counts no operation
    operations = sim.operations
    with pytest.raises(MissingKeyError):
        sim.delete()
    assert (sim.n, sim.N, sim.operations) == (0, AMORTIZED_INITIAL_CUTOFF, operations)


def test_simulator_validates_scheme():
    with pytest.raises(ValueError):
        CutoffSimulator("bogus", random.Random(0))
    with pytest.raises(ValueError):
        DynamicThresholdDict(0, scheme="bogus")


@pytest.mark.parametrize("scheme", ["whi", "amortized"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1, 1.5, "duplicate"])
def test_invalid_frequency_leaves_no_trace(scheme, bad):
    def make():
        d = DynamicThresholdDict(5, scheme=scheme, scheme_seed=3)
        for k in (1, 3, 4):
            d.insert(k, 0.25, b"v%d" % k)
        return d

    d, twin = make(), make()
    if bad == "duplicate":
        with pytest.raises(DuplicateKeyError):
            d.insert(1, 0.5)
    else:
        with pytest.raises(ValueError):
            d.insert(2, bad)
    assert 2 not in d and len(d) == len(twin) == 3
    assert d.keys() == twin.keys() == [1, 3, 4]
    assert d.N == twin.N
    assert d.fingerprint() == twin.fingerprint()
    with pytest.raises(MissingKeyError):
        d.delete(2)
    # the bad insert consumed no scheme draw: both dicts keep evolving alike
    assert d.rng.getstate() == twin.rng.getstate()
    for k in range(5, 40):
        d.insert(k, 0.01)
        twin.insert(k, 0.01)
        assert (d.N, d.fingerprint()) == (twin.N, twin.fingerprint())
    for k in range(5, 40, 2):
        d.delete(k)
        twin.delete(k)
        assert (d.N, d.fingerprint()) == (twin.N, twin.fingerprint())


@pytest.mark.parametrize("scheme", ["whi", "amortized"])
def test_dict_matches_simulator_and_fresh_build(scheme, monkeypatch):
    # the size at each of the dict's rebuilds: what it relinks
    moved = []
    rebuild = DynamicThresholdDict.rebuild

    def counting(self, N):
        moved.append(len(self))
        return rebuild(self, N)

    monkeypatch.setattr(DynamicThresholdDict, "rebuild", counting)
    d = DynamicThresholdDict(21, scheme=scheme, scheme_seed=17)
    sim = CutoffSimulator(scheme, random.Random(17))
    rng = random.Random(99)
    present = {}
    for step in range(3000):
        # drift between growth and shrinkage so rebuilds fire both ways
        grow = 0.65 if (step // 500) % 2 == 0 else 0.35
        k = rng.randint(1, 400)
        if k not in present and (not present or rng.random() < grow):
            present[k] = (rng.random() / 400, b"p%d" % k)
            d.insert(k, *present[k])
            sim.insert()
        elif present:
            k = k if k in present else rng.choice(sorted(present))
            del present[k]
            d.delete(k)
            sim.delete()
        assert (d.n, d.N) == (sim.n, sim.N)
    assert len(moved) == sim.rebuilds > 10
    assert sum(moved) == sim.key_moves
    fresh = DynamicThresholdDict(21, scheme=scheme, scheme_seed=0)
    for k in sorted(present):
        fresh.insert(k, *present[k])
    fresh.rebuild(d.N)
    assert d.fingerprint() == fresh.fingerprint()


def _resident_attributes(obj, path="d"):
    """Every attribute reachable from ``obj`` through hidict objects, other
    than the tree's nodes and a ``random.Random``'s state; a keyed hasher
    is given by its state, the digest of a copy."""
    found = {}
    for name, value in vars(obj).items():
        where = "%s.%s" % (path, name)
        if name == "_root" or isinstance(value, random.Random):
            continue
        if type(value).__module__.startswith("hidict."):
            found.update(_resident_attributes(value, where))
        elif isinstance(value, hashlib.blake2b):
            found[where] = value.copy().digest()
        else:
            found[where] = value
    return found


@pytest.mark.parametrize("scheme", ["whi", "amortized"])
def test_detours_leave_no_trace_beside_the_tree(scheme):
    # keys 1..5 reached directly and with 50 insert/delete detours, then
    # compared at one N: nothing the dict holds may count the detours
    direct = DynamicThresholdDict(4, scheme=scheme, scheme_seed=8)
    detoured = DynamicThresholdDict(4, scheme=scheme, scheme_seed=8)
    for k in range(1, 6):
        direct.insert(k, 0.125)
        detoured.insert(k, 0.125)
        for extra in range(100 + 10 * k, 110 + 10 * k):
            detoured.insert(extra, 0.25)
            detoured.delete(extra)
    detoured.rebuild(direct.N)
    assert _resident_attributes(detoured) == _resident_attributes(direct)
    assert set(vars(detoured)) == {"_root", "_n", "seed", "N", "scheme", "rng", "_hasher"}
    assert detoured.fingerprint() == direct.fingerprint()


@pytest.mark.parametrize("make", [
    lambda seed: ZipZipTree(seed),
    lambda seed: ThresholdedDict(seed, 2000),
    lambda seed: DynamicThresholdDict(seed, scheme="whi", scheme_seed=3),
    lambda seed: DynamicThresholdDict(seed, scheme="amortized", scheme_seed=3),
    lambda seed: PairedDict(seed, capacity=2000),
    lambda seed: PairedDict(seed),
], ids=["zipzip", "threshold", "dynamic-whi", "dynamic-amortized", "paired-cap",
        "paired"])
def test_keyed_hashers_absorb_no_key(make):
    # after 1,000 churn operations every tree's hasher is still the seed's
    # freshly keyed one: a rank feeds copies, never the hasher itself
    seed = -6
    d = make(seed)
    rng = random.Random(12)
    live = set()
    for _ in range(1000):
        k = rng.randint(1, 300)
        if k in live:
            d.delete(k)
            live.discard(k)
        else:
            d.insert(k, rng.choice([1e-6, 0.001, 0.5]))
            live.add(k)
    trees = [d, d.learned] if isinstance(d, PairedDict) else [d]
    for tree in trees:
        assert tree._hasher.digest() == keyed_hasher(seed).digest()
