"""Side-by-side timing of two checkouts' ``hidict`` in one process.

    python3 tools/ab_inprocess.py PARENT_DIR CHANGE_DIR [--rounds 21]

Each checkout's ``src/hidict`` is copied into a temporary directory under a
package name of its own (``hidict_parent``, ``hidict_change``) and both are
imported here, so the two sides share one interpreter, one heap and one
host state.  Both sides build the same structures from the same inputs; if
any pair gives different fingerprints, or different search replies, the
script prints the tasks and exits 1 before it times anything.

The tasks are ``fingerprint()`` of a 100,000-key thresholded dict, capped
paired dict and AVL tree; 20,000 searches of held and absent keys, drawn
by a Zipf(1) law over the probes in order of predicted frequency, on that
capped paired dict, on a 5,000-key uncapped one, on paper-check's pair
(capacity 2,000, keys 1..2,000 inserted in key order at Zipf(1)
predictions), on a pair whose learned side's right spine runs long
(keys 3k at f = 2**-k for k = 1..1,000, gamma 3.82) and on paper-check's
L-treap (the same keys and predictions, a right path: its searches
bisect the spine); and 20,000 churn
operations (a delete of a held key, then an insert of an absent one) at
5,000 keys on a zip-zip tree, a WHI dynamic dict and an uncapped paired
dict, each churn on a fresh build.  Each round runs every task on both
sides in a shuffled order, with the garbage collector off while a task
is timed.  The table gives each side's median and minimum over the
rounds and the change/parent ratio of each.  The standard library and
numpy are all it needs.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import random
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

SIDES = ("parent", "change")
BIG = 100_000  # keys of the fingerprinted structures
LIVE = 5_000  # keys held through a churn
CHURN = 20_000  # operations per churn, half deletes and half inserts
READS = 20_000  # searches per read task
PAPER = 2_000  # keys of paper-check's pair and L-treap
LONG = 1_000  # keys of the pair with a long learned spine
SEED = 3101


def load(checkout: str, side: str, into: str):
    """``checkout``'s ``src/hidict``, imported as the package ``hidict_<side>``."""
    name = "hidict_" + side
    for mod in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[mod]  # a package of that name loaded by an earlier call
    shutil.copytree(os.path.join(checkout, "src", "hidict"), os.path.join(into, name),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def inputs(rng: np.random.Generator, n: int):
    """(key, frequency, payload) triples in a random insertion order: distinct
    int keys, frequencies of a Zipf law at alpha 1.5 summing to 1, 8-byte
    payloads."""
    keys = rng.choice(10 * n, size=n, replace=False)
    f = 1.0 / np.arange(1, n + 1) ** 1.5
    f /= f.sum()
    payloads = rng.integers(0, 2**63, size=n)
    return [(int(k), float(w), int(p).to_bytes(8, "little"))
            for k, w, p in zip(keys, rng.permutation(f), payloads)]


def filled(d, items):
    for key, f, payload in items:
        d.insert(key, f, payload)
    return d


def fingerprint_tasks(pkgs: dict, rng: np.random.Generator) -> tuple:
    """Task name to {side: call}, each call fingerprinting a prebuilt
    structure; then the items they hold, and {side: capped paired dict}."""
    items = inputs(rng, BIG)
    makers = {
        "fingerprint threshold": lambda h: h.ThresholdedDict(SEED, BIG),
        "fingerprint paired-cap": lambda h: h.PairedDict(SEED, capacity=BIG),
        "fingerprint avl": lambda h: h.AVLTree(SEED),
    }
    tasks, built = {}, {}
    for name, make in makers.items():
        built[name] = {side: filled(make(h), items) for side, h in pkgs.items()}
        tasks[name] = {side: d.fingerprint for side, d in built[name].items()}
    return tasks, items, built["fingerprint paired-cap"]


def queries(rng: np.random.Generator, items: list) -> list:
    """READS keys, drawn by a Zipf(1) law over the probes: the held keys in
    order of falling frequency, each followed by a key none holds."""
    held = {key for key, _, _ in items}
    absent = iter(k for k in range(10 * len(items) + 1) if k not in held)
    probes = []
    for key, _, _ in sorted(items, key=lambda item: -item[1]):
        probes += [key, next(absent)]
    p = 1.0 / np.arange(1, len(probes) + 1)
    return [probes[i] for i in rng.choice(len(probes), size=READS, p=p / p.sum())]


def read_tasks(pkgs: dict, rng: np.random.Generator, items: list, capped: dict) -> dict:
    """Task name to {side: call}: each call runs READS searches on a
    prebuilt paired dict, ``capped`` holding ``items``, an uncapped one of
    LIVE keys, paper-check's or the long-spine pair, or on paper-check's
    L-treap, and returns the replies."""
    small = inputs(rng, LIVE)
    zipf = 1.0 / np.arange(1, PAPER + 1)
    paper = [(k, float(f), None) for k, f in zip(range(1, PAPER + 1), zipf / zipf.sum())]
    spine = [(3 * k, 2.0 ** -k, None) for k in range(1, LONG + 1)]
    built = {
        "search paired-cap": (items, capped),
        "search paired": (small, {side: filled(h.PairedDict(SEED), small)
                                  for side, h in pkgs.items()}),
        "search paper-check": (paper, {side: filled(h.PairedDict(SEED, capacity=PAPER), paper)
                                       for side, h in pkgs.items()}),
        "search long-spine": (spine, {side: filled(h.PairedDict(SEED, gamma=3.82), spine)
                                      for side, h in pkgs.items()}),
        "search l-treap": (paper, {side: filled(h.LTreap(SEED), paper)
                                   for side, h in pkgs.items()}),
    }

    def bind(search, keys):
        def run():
            return [search(key) for key in keys]
        return run

    tasks = {}
    for name, (held, sides) in built.items():
        keys = queries(rng, held)
        tasks[name] = {side: bind(d.search, keys) for side, d in sides.items()}
    return tasks


def churn_tasks(pkgs: dict, rng: np.random.Generator) -> dict:
    """Task name to {side: (build, run)}: ``build()`` makes a fresh
    structure of LIVE keys, and ``run(d)`` applies the churn to it."""
    pool = inputs(rng, 2 * LIVE)
    start = pool[:LIVE]
    held, free = list(range(LIVE)), list(range(LIVE, 2 * LIVE))
    ops = []  # (the key deleted, the item inserted)
    order = random.Random(SEED)
    for _ in range(CHURN // 2):
        gone = held.pop(order.randrange(len(held)))
        came = free.pop(order.randrange(len(free)))
        ops.append((pool[gone][0], pool[came]))
        held.append(came)
        free.append(gone)
    makers = {
        "churn zipzip": (lambda h: h.ZipZipTree(SEED), False),
        "churn dynamic-whi": (lambda h: h.DynamicThresholdDict(SEED, scheme="whi",
                                                               scheme_seed=SEED), True),
        "churn paired": (lambda h: h.PairedDict(SEED), True),
    }

    def bind(make, weighted, h):
        def build():
            return filled(make(h), [(key, f if weighted else 1.0, payload)
                                    for key, f, payload in start])

        def run(d):
            insert, delete = d.insert, d.delete
            for gone, (key, f, payload) in ops:
                delete(gone)
                insert(key, f if weighted else 1.0, payload)
        return build, run

    return {name: {side: bind(make, weighted, h) for side, h in pkgs.items()}
            for name, (make, weighted) in makers.items()}


def replies(reply) -> tuple:
    # each side has its own SearchResult class, whose instances compare
    # unequal to the other's
    return reply.found, reply.comparisons, reply.payload


def differing_replies(reads: dict) -> list:
    """The read tasks whose two sides give different search replies."""
    return [name for name, calls in reads.items()
            if list(map(replies, calls["parent"]())) != list(map(replies, calls["change"]()))]


def differing(fps: dict, churns: dict) -> list:
    """The tasks whose two sides give different fingerprints."""
    bad = [name for name, calls in fps.items()
           if calls["parent"]() != calls["change"]()]
    for name, sides in churns.items():
        prints = []
        for build, run in sides.values():
            d = build()
            run(d)
            prints.append(d.fingerprint())
        if prints[0] != prints[1]:
            bad.append(name)
    return bad


def timed(call, *args) -> float:
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        call(*args)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--rounds", type=int, default=21)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    with tempfile.TemporaryDirectory() as into:
        sys.path.insert(0, into)
        try:
            return compare({side: load(getattr(args, side), side, into) for side in SIDES},
                           args.rounds)
        finally:
            sys.path.remove(into)


def compare(pkgs: dict, rounds: int) -> int:
    rng = np.random.default_rng(SEED)
    fps, items, capped = fingerprint_tasks(pkgs, rng)
    churns = churn_tasks(pkgs, rng)
    reads = read_tasks(pkgs, rng, items, capped)
    bad = differing(fps, churns)
    if bad:
        print("fingerprints differ between the two sides: %s" % ", ".join(bad))
    bad_reads = differing_replies(reads)
    if bad_reads:
        print("search replies differ between the two sides: %s" % ", ".join(bad_reads))
    if bad or bad_reads:
        return 1

    calls = {**fps, **reads}
    names = list(fps) + list(reads) + list(churns)
    times = {(name, side): [] for name in names for side in SIDES}
    shuffle = random.Random(SEED)
    for r in range(rounds):
        runs = list(times)
        shuffle.shuffle(runs)
        for name, side in runs:
            if name in calls:
                times[name, side].append(timed(calls[name][side]))
            else:
                build, run = churns[name][side]
                times[name, side].append(timed(run, build()))
        print("round %d/%d done" % (r + 1, rounds), file=sys.stderr)

    print("%d rounds; times in ms" % rounds)
    print("%-24s %10s %10s %10s %10s %8s %8s" % ("task", "parent med", "change med",
                                              "parent min", "change min", "med", "min"))
    for name in names:
        old, new = times[name, "parent"], times[name, "change"]
        m_old, m_new = statistics.median(old), statistics.median(new)
        print("%-24s %10.2f %10.2f %10.2f %10.2f %8.3f %8.3f"
              % (name, m_old * 1e3, m_new * 1e3, min(old) * 1e3, min(new) * 1e3,
                 m_new / m_old, min(new) / min(old)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
