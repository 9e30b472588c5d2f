"""Alternating A/B pairs of perfbench runs: a parent checkout against a change.

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload paper-check \
        --seeds 401-410 [--seconds 8]

Each seed is one pair: ``perfbench/run.py --trace 0`` runs in both checkouts
with that seed, one after the other, the parent first on even pairs and the
change first on odd ones, so a drift of the host's speed falls on both sides
alike.  Each checkout runs its own ``perfbench/`` over its own ``src/``.

For every metric the table gives the parent's and the change's medians, the
change's relative move, its wins (pairs where it reads better, in the
direction ``BENCHMARK.json`` gives; lower when the metric is not listed),
its ties, the spread of the parent's runs between their quartiles, and the
verdict a reader of the benchmark draws from them:

- ``gain``: the change wins at least 9 of every 10 pairs (ties count for
  neither side) and its median is better than the parent's by more than
  the parent's quartile spread;
- ``worse``: the change's median is worse than the parent's by more than
  the metric's bound in ``BENCHMARK.json`` (a fraction of the parent's
  median);
- ``unresolved``: the parent's quartile spread is wider than that bound,
  unless every run of the change reads better than every run of the parent;
- ``within``: otherwise.

A metric with no bound (a per-layer one) is a ``gain`` or ``-``.  The
standard library is all it needs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text: str) -> list:
    """``"1,4,7-9"`` as ``[1, 4, 7, 8, 9]``."""
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds += range(int(lo), int(hi) + 1) if sep else [int(lo)]
    if not seeds:
        raise argparse.ArgumentTypeError("no seeds in %r" % text)
    return seeds


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in ``checkout``: its last stdout line, parsed."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s failed in %s:\n%s" % (" ".join(cmd), checkout,
                                                     proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric_rules(checkout: str) -> dict:
    """Metric name to ``(higher is better, bound or None)``, from
    ``BENCHMARK.json``; the bound is a fraction of the parent's median."""
    try:
        with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError):
        return {}
    return {m["name"]: (m.get("better") == "higher", m.get("bound"))
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def quartile_spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(old: list, new: list, higher: bool, bound) -> str:
    """``gain``, ``worse``, ``unresolved``, ``within`` or, with no bound,
    ``-``, for the parent's runs ``old`` and the change's ``new``, paired
    by index (the module's docstring gives the rules)."""
    sign = 1 if higher else -1
    old = [sign * a for a in old]  # higher is better from here on
    new = [sign * b for b in new]
    wins = sum(b > a for a, b in zip(old, new))
    better = statistics.median(new) - statistics.median(old)
    spread = quartile_spread(old)
    if 10 * wins >= 9 * len(old) and better > spread:
        return "gain"
    if bound is None:
        return "-"
    allowed = bound * abs(statistics.median(old))
    if -better > allowed:
        return "worse"
    if spread > allowed and min(new) <= max(old):
        return "unresolved"
    return "within"


def table(pairs: list, rules: dict) -> list:
    """One row per metric that both sides of every pair report."""
    names = sorted(set.intersection(*(set(p["parent"]["metrics"]) & set(p["change"]["metrics"])
                                      for p in pairs)))
    rows = []
    for name in names:
        old = [p["parent"]["metrics"][name]["value"] for p in pairs]
        new = [p["change"]["metrics"][name]["value"] for p in pairs]
        higher, bound = rules.get(name, (False, None))
        sign = 1 if higher else -1
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        ties = sum(a == b for a, b in zip(old, new))
        m_old, m_new = statistics.median(old), statistics.median(new)
        move = (m_new - m_old) / m_old * 100 if m_old else float("nan")
        rows.append((name, m_old, m_new, move, wins, ties, quartile_spread(old),
                     verdict(old, new, higher, bound)))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="seeds, one pair each, as 1,4,7-9")
    parser.add_argument("--seconds", type=float, default=8.0)
    args = parser.parse_args(argv)

    pairs = []
    for i, seed in enumerate(args.seeds):
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed}
        for side in sides:
            pair[side] = run_once(getattr(args, side), args.workload, seed, args.seconds)
        pairs.append(pair)
        print("pair %d/%d (seed %d) done" % (i + 1, len(args.seeds), seed), file=sys.stderr)

    n = len(pairs)
    failed = [(p["seed"], side, p[side]["failed"]) for p in pairs
              for side in ("parent", "change") if p[side]["failed"]]
    print("%s: %d pairs, seeds %s" % (args.workload, n, ",".join(str(s) for s in args.seeds)))
    print("%-24s %14s %14s %8s %6s %5s %12s  %s" % ("metric", "parent", "change", "move",
                                                  "wins", "ties", "parent IQR", "verdict"))
    for name, m_old, m_new, move, wins, ties, iqr, word in table(pairs,
                                                                 metric_rules(args.change)):
        print("%-24s %14.6g %14.6g %+7.1f%% %3d/%-2d %5d %12.4g  %s"
              % (name, m_old, m_new, move, wins, n, ties, iqr, word))
    for seed, side, count in failed:
        print("seed %d: %s failed %d operations" % (seed, side, count))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
