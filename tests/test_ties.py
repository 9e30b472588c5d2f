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
"""

import random

import pytest

from hidict.structures import ZipZipTree


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
