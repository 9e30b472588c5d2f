"""Golden digest over fingerprints and comparison counts of a fixed trace.

Every structure is driven through the same seeded insert/delete trace with
payloads.  At checkpoints the test folds its fingerprint, the comparison
count of a search for every universe key, and a tallied range query into one
sha256.  The pinned digest was computed before the read path and the
threshold wrappers were merged, so any refactor that changes a single tree
shape, rank, weight, cutoff or comparison count fails here.
"""

import hashlib
import random

from hidict.core import ComparisonTally
from hidict.dynamics import DynamicThresholdDict
from hidict.pairing import PairedDict
from hidict.structures import AVLTree, CTreap, LTreap, ZipZipTree
from hidict.thresholding import ThresholdedDict

UNIVERSE = 300
SEED = 0x5EED

GOLDEN = "b8de934cd0617a8e2f1fcd5405a5a1e6f6a5414255a3bf26a754bdd0cd0a8a2c"


def _structures():
    return {
        "avl": (AVLTree(SEED), False),
        "zipzip": (ZipZipTree(SEED), False),
        "biased-zipzip": (ZipZipTree(SEED), True),
        "threshold-zipzip": (ThresholdedDict(SEED, capacity=UNIVERSE), True),
        "paired-zipzip": (PairedDict(SEED, capacity=UNIVERSE), True),
        "paired-uncapped": (PairedDict(SEED), True),
        "l-treap": (LTreap(SEED), True),
        "c-treap": (CTreap(SEED), True),
        "dynamic-whi": (DynamicThresholdDict(SEED, scheme="whi", scheme_seed=7), True),
        "dynamic-amortized": (DynamicThresholdDict(SEED, scheme="amortized"), True),
    }


def _trace():
    """Grow to ~95 keys, shrink to empty (several times), grow again; 900 ops."""
    rng = random.Random(20251001)
    present = set()
    ops = []
    for phase_p in (0.9, 0.2, 0.8):
        for _ in range(300):
            key = rng.randint(1, UNIVERSE)
            if key in present and rng.random() >= phase_p:
                ops.append(("d", key))
                present.discard(key)
            elif key not in present and (not present or rng.random() < phase_p):
                ops.append(("i", key))
                present.add(key)
            elif present:
                victim = rng.choice(sorted(present))
                ops.append(("d", victim))
                present.discard(victim)
    return ops


def _frequency(key):
    # Zipf(1) over the universe, normalized to sum 1
    norm = sum(1.0 / r for r in range(1, UNIVERSE + 1))
    return (1.0 / key) / norm


def _payload(key):
    return b"p%d" % (key * 7919 % 10007)


def _digest():
    h = hashlib.sha256()
    tally = ComparisonTally()
    for name, (s, learned) in _structures().items():
        h.update(name.encode())
        for step, (op, key) in enumerate(_trace()):
            if op == "i":
                s.insert(key, _frequency(key) if learned else 1.0, _payload(key))
            else:
                s.delete(key)
            if step % 50 != 49:
                continue
            h.update(s.fingerprint())
            for k in range(UNIVERSE + 2):
                res = s.search(k)
                h.update(b"%d:%d:%d:%r;" % (k, res.found, res.comparisons, res.payload))
            tally.reset()
            hits = s.range_query(UNIVERSE // 4, UNIVERSE // 2, tally)
            h.update(b"range:%d:%d;" % (len(hits), tally.count))
    return h.hexdigest()


def test_golden_fingerprints_and_comparison_counts():
    assert _digest() == GOLDEN
