"""Rank ties, forced.

A rank tie goes to the smaller key.  A zip-zip rank packs a 32-bit
tie-breaker, so no tree built from the oracle meets a tie in practice, and
a rule that sent ties the other way in one place would pass every other
test.  ``_TieTree`` draws its ranks from three values, so most pairs of
keys tie.  Seeded histories of appends, inserts below the largest key,
deletes on and off the right spine and deletes that empty the tree must
keep the invariants and, after every operation, print the fingerprint of a
``load_sorted`` build of the same contents: the insert descent, the spine
join, the zip of every delete and the bulk link each apply the tie rule.
``_TieThresholdedDict`` ties as often and keeps the weight level, so its
rebuilds move tied ranks through ``zz_rerank`` and relink them; and the
strong-HI check runs over the tie tree too.
"""

import random

import pytest

from hidict.hiverify import shi_check
from hidict.structures import ZipZipTree, _weight_level
from hidict.thresholding import ThresholdedDict, threshold


class _TieTree(ZipZipTree):
    """A zip-zip tree whose packed ranks take three values."""

    def _rank(self, key, weight):
        return ((7 * key) % 3) << 32


def _sorted_build(contents):
    t = _TieTree(1)
    t.load_sorted((key, 1.0, payload) for key, payload in sorted(contents.items()))
    return t


@pytest.mark.parametrize("seed", range(6))
def test_ties_go_to_the_smaller_key(seed):
    rng = random.Random("ties-%d" % seed)
    t = _TieTree(1)
    contents = {}
    seen = {"append": 0, "below": 0, "delete spine": 0, "delete below": 0, "emptied": 0}
    for _ in range(500):
        top = max(contents, default=0)
        u = rng.random()
        if u < 0.3:
            key = top + rng.randint(1, 3)
            seen["append"] += 1
        elif u < 0.6:
            key = rng.randint(1, 60)
            if key in contents:
                continue
            seen["below"] += key < top
        elif u < 0.97 and contents:
            key = rng.choice(sorted(contents))
            seen["delete spine" if key in t._spine_keys else "delete below"] += 1
            t.delete(key)
            del contents[key]
            seen["emptied"] += not contents
            key = None
        else:
            for key in rng.sample(sorted(contents), len(contents)):
                t.delete(key)
                del contents[key]
            seen["emptied"] += 1
            key = None
        if key is not None:
            t.insert(key, 1.0, b"%d" % key)
            contents[key] = b"%d" % key
        t.check_invariants()
        assert t.fingerprint() == _sorted_build(contents).fingerprint()
    assert min(seen.values()) > 3, seen


class _TieThresholdedDict(ThresholdedDict):
    """A thresholded dict whose rank keeps its weight level and replaces the
    geometric draw by one of three values and the tie-breaker by 0, stored
    as a double as the engine stores a zip-zip rank: keys at one level tie
    often, and a rebuild still moves their ranks."""

    def _rank(self, key, f):
        return float((_weight_level(threshold(f, self.N)) + (7 * key) % 3) << 32)


# raw frequencies whose halves fall above, between and below the floors
# 1/(2N) of the cutoffs below
_TIE_FREQUENCIES = (0.0, 1e-5, 1e-4, 0.001, 0.004, 0.01, 0.03, 0.1, 0.5, 1.0)
_TIE_CUTOFFS = (8, 16, 40, 64, 100, 300, 1000, 5000)


def _insert_build(contents, N, rng):
    t = _TieThresholdedDict(1, N)
    for key in rng.sample(sorted(contents), len(contents)):
        f, payload = contents[key]
        t.insert(key, f, payload)
    return t


@pytest.mark.parametrize("seed", range(4))
def test_tied_ranks_survive_rebuilds(seed):
    # seeded histories of inserts, deletes and rebuilds that move the floor
    # level up and down: after every operation the dict prints the
    # fingerprint of a fresh insert build of its contents at its N
    rng = random.Random("tie-rebuilds-%d" % seed)
    d = _TieThresholdedDict(1, 64)
    contents = {}
    seen = {"insert": 0, "delete": 0, "level up": 0, "level down": 0, "same level": 0}
    for _ in range(400):
        u = rng.random()
        if u < 0.5 and len(d) < d.N:
            key = rng.randint(1, 60)
            if key in contents:
                continue
            contents[key] = (rng.choice(_TIE_FREQUENCIES), b"%d" % key)
            d.insert(key, *contents[key])
            seen["insert"] += 1
        elif u < 0.8 and contents:
            key = rng.choice(sorted(contents))
            d.delete(key)
            del contents[key]
            seen["delete"] += 1
        else:
            N = rng.choice([N for N in _TIE_CUTOFFS if N >= len(d)])
            was, now = (_weight_level(threshold(0.0, c)) for c in (d.N, N))
            seen["level up" if now > was else "level down" if now < was else "same level"] += 1
            d.rebuild(N)
        d.check_invariants()
        assert d.fingerprint() == _insert_build(contents, d.N, rng).fingerprint()
    assert min(seen.values()) > 3, seen


@pytest.mark.parametrize("make", [
    lambda: _TieTree(1),
    lambda: _TieThresholdedDict(1, 80),
], ids=["tie-tree", "tie-thresholded"])
def test_strong_hi_check_passes_with_ties(make):
    report = shi_check(make, 40, 300, seed=3)
    assert report.trials == 300
    assert report.mismatches == 0
