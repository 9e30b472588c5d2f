"""Side-by-side timing of two checkouts' ``hidict`` in one process.

    python3 tools/ab_inprocess.py PARENT_DIR CHANGE_DIR [--rounds 21]

Each checkout's ``src/hidict`` is copied into a temporary directory under a
package name of its own (``hidict_parent``, ``hidict_change``) and both are
imported here, so the two sides share one interpreter, one heap and one
host state.  Both sides build the same structures from the same inputs; if
any pair gives different fingerprints, the script prints the task and exits
1 before it times anything.

The tasks are ``fingerprint()`` of a 100,000-key thresholded dict, capped
paired dict and AVL tree, and 20,000 churn operations (a delete of a held
key, then an insert of an absent one) at 5,000 keys on a zip-zip tree, a
WHI dynamic dict and an uncapped paired dict, each churn on a fresh build.
Each round runs every task on both sides in a shuffled order, with the
garbage collector off while a task is timed.  The table gives each side's
median and minimum over the rounds and the change/parent ratio of each.
The standard library and numpy are all it needs.
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


def fingerprint_tasks(pkgs: dict, rng: np.random.Generator) -> dict:
    """Task name to {side: call}: each call fingerprints a prebuilt structure."""
    items = inputs(rng, BIG)
    makers = {
        "fingerprint threshold": lambda h: h.ThresholdedDict(SEED, BIG),
        "fingerprint paired-cap": lambda h: h.PairedDict(SEED, capacity=BIG),
        "fingerprint avl": lambda h: h.AVLTree(SEED),
    }
    tasks = {}
    for name, make in makers.items():
        tasks[name] = {}
        for side, h in pkgs.items():
            d = make(h)
            for key, f, payload in items:
                d.insert(key, f, payload)
            tasks[name][side] = d.fingerprint
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
            d = make(h)
            for key, f, payload in start:
                d.insert(key, f if weighted else 1.0, payload)
            return d

        def run(d):
            insert, delete = d.insert, d.delete
            for gone, (key, f, payload) in ops:
                delete(gone)
                insert(key, f if weighted else 1.0, payload)
        return build, run

    return {name: {side: bind(make, weighted, h) for side, h in pkgs.items()}
            for name, (make, weighted) in makers.items()}


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
    fps = fingerprint_tasks(pkgs, rng)
    churns = churn_tasks(pkgs, rng)
    bad = differing(fps, churns)
    if bad:
        print("fingerprints differ between the two sides: %s" % ", ".join(bad))
        return 1

    times = {(name, side): [] for name in list(fps) + list(churns) for side in SIDES}
    shuffle = random.Random(SEED)
    for r in range(rounds):
        runs = list(times)
        shuffle.shuffle(runs)
        for name, side in runs:
            if name in fps:
                times[name, side].append(timed(fps[name][side]))
            else:
                build, run = churns[name][side]
                times[name, side].append(timed(run, build()))
        print("round %d/%d done" % (r + 1, rounds), file=sys.stderr)

    print("%d rounds; times in ms" % rounds)
    print("%-24s %10s %10s %10s %10s %8s %8s" % ("task", "parent med", "change med",
                                              "parent min", "change min", "med", "min"))
    for name in list(fps) + list(churns):
        old, new = times[name, "parent"], times[name, "change"]
        m_old, m_new = statistics.median(old), statistics.median(new)
        print("%-24s %10.2f %10.2f %10.2f %10.2f %8.3f %8.3f"
              % (name, m_old * 1e3, m_new * 1e3, min(old) * 1e3, min(new) * 1e3,
                 m_new / m_old, min(new) / min(old)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
