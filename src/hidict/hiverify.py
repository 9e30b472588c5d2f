"""Executable history-independence checks.

Strong HI is tested exactly: every operation sequence realizing a content
set must produce a byte-identical fingerprint.  Weak HI is tested
distributionally: with the structural seed fixed, the cutoff N is the only
history-sensitive component of a rebuilt threshold structure, so we compare
the empirical N distributions that different from-empty strategies induce,
using total-variation distance.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .dynamics import counterexample_structures


@dataclass
class HiReport:
    mode: str  # "strong" or "weak"
    trials: int
    mismatches: int
    tv_distance: Optional[float] = None

    @property
    def passed(self) -> bool:
        if self.mode == "strong":
            return self.mismatches == 0
        return self.tv_distance is not None and self.tv_distance <= 0.05


def _trial_frequency(key) -> float:
    # deterministic per-key raw frequency so that every realization of a
    # content set inserts identical (key, f) entries
    return ((key * 2654435761) % 1000 + 1) / 2000.0


def _build(structure, ops):
    for op, key in ops:
        if op == "i":
            structure.insert(key, _trial_frequency(key))
        else:
            structure.delete(key)
    return structure


def _randomized_realization(rng: random.Random, keys, universe):
    """A random operation sequence ending with exactly ``keys`` present."""
    ops = []
    order = list(keys)
    rng.shuffle(order)
    present = set()
    for key in order:
        ops.append(("i", key))
        present.add(key)
        # occasional delete/reinsert detour of an already-present key
        if present and rng.random() < 0.3:
            victim = rng.choice(sorted(present))
            ops.append(("d", victim))
            ops.append(("i", victim))
        # occasional transient key outside the target set
        if rng.random() < 0.15:
            extra = rng.choice(universe)
            if extra not in present:
                ops.append(("i", extra))
                ops.append(("d", extra))
    return ops


def shi_check(structure_factory: Callable[[], object], universe_size: int,
              trials: int, seed: int = 0) -> HiReport:
    """Strong-HI distinguisher over random (and small exhaustive) histories.

    For universe_size <= 6 every insertion order of the full key set is
    enumerated; otherwise ``trials`` (at least 1, so that a pass means
    something was compared) random subsets are realized by two
    distinct operation sequences each (including delete/reinsert and
    transient-key detours) and compared to the sorted-order build.
    """
    rng = random.Random(seed)
    mismatches = 0
    total = 0
    if universe_size <= 6:
        keys = list(range(1, universe_size + 1))
        canonical = _build(structure_factory(), [("i", k) for k in keys]).fingerprint()
        for perm in itertools.permutations(keys):
            total += 1
            fp = _build(structure_factory(), [("i", k) for k in perm]).fingerprint()
            if fp != canonical:
                mismatches += 1
        return HiReport("strong", total, mismatches)

    if trials < 1:
        raise ValueError("shi_check needs trials >= 1 above a universe of 6, got %r"
                         % (trials,))
    universe = list(range(1, universe_size + 1))
    for _ in range(trials):
        total += 1
        size = rng.randint(1, universe_size)
        keys = rng.sample(universe, size)
        canonical = _build(structure_factory(), [("i", k) for k in sorted(keys)]).fingerprint()
        fp = _build(structure_factory(),
                    _randomized_realization(rng, keys, universe)).fingerprint()
        if fp != canonical:
            mismatches += 1
    return HiReport("strong", total, mismatches)


def amortized_counterexample_check(seed: int = 0) -> HiReport:
    """Negative control: the amortized scheme's X/Y pair must mismatch."""
    x, y = counterexample_structures(seed)
    if x.keys() != y.keys():  # a mismatch of contents would prove nothing
        raise ValueError("the counterexample's dicts hold different keys")
    mism = 0 if x.fingerprint() == y.fingerprint() else 1
    return HiReport("strong", 1, mism)


def total_variation(counts_a: Counter, counts_b: Counter, samples: int) -> float:
    keys = set(counts_a) | set(counts_b)
    return 0.5 * sum(abs(counts_a.get(k, 0) - counts_b.get(k, 0)) for k in keys) / samples


def worst_total_variation(distributions: Sequence[Counter], samples: int) -> float:
    """The largest pairwise TV distance among ``distributions``, each
    tallied over ``samples`` runs."""
    return max(total_variation(a, b, samples)
               for a, b in itertools.combinations(distributions, 2))


def whi_check(structure_factory: Callable[[int], object], target_n: int,
              samples: int, strategies: Sequence[Callable[[object], None]],
              seed: int = 0) -> HiReport:
    """Weak-HI distributional check over the cutoff marginal.

    ``structure_factory(scheme_seed)`` builds an empty structure exposing
    ``insert``/``delete``, the size ``n`` and the cutoff ``N``; each
    strategy drives it from empty to the same target content set, of
    ``target_n`` keys (a ValueError otherwise), ``samples`` >= 1 times
    each.  Reports the maximum pairwise TV distance between the
    strategies' empirical N distributions.  The scheme seed of a sample
    does not depend on ``target_n``, so a run grown further passes through
    the states of the shorter runs (see ``growth_strategy``).
    """
    if len(strategies) < 2:
        raise ValueError("whi_check needs at least 2 strategies")
    if samples < 1:
        raise ValueError("whi_check needs samples >= 1, got %r" % (samples,))
    distributions = []
    for s_idx, strategy in enumerate(strategies):
        counts = Counter()
        for i in range(samples):
            obj = structure_factory(seed * 1_000_003 + s_idx * samples + i)
            strategy(obj)
            if obj.n != target_n:
                raise ValueError("strategy %d ends at n=%d, not target_n=%d"
                                 % (s_idx, obj.n, target_n))
            counts[obj.N] += 1
        distributions.append(counts)
    return HiReport("weak", samples, 0, worst_total_variation(distributions, samples))


def growth_strategy(n: int, detours: int = 0,
                    sizes: Sequence[int] = ()) -> Callable[[object], None]:
    """Insert keys 1..n; after each of the first ``detours`` keys k, insert
    and then delete key n + k.

    The run's ``counts`` maps each size m in ``sizes`` to a Counter of the
    cutoff N read after key m and its detour, where the run holds m keys:
    the state a run of ``growth_strategy(m, detours)`` ends in, when the
    structure ignores keys and frequencies (as ``CutoffSimulator`` does).
    A size outside 1..n, which the run never reaches, is a ValueError.
    """
    for m in sizes:
        if not 1 <= m <= n:
            raise ValueError("size %r is outside 1..%d, the sizes the run passes" % (m, n))
    counts = {m: Counter() for m in sizes}
    steps = [(k, _trial_frequency(k),
              (n + k, _trial_frequency(n + k)) if k <= detours else None,
              counts.get(k))
             for k in range(1, n + 1)]

    def run(obj):
        insert, delete = obj.insert, obj.delete
        for key, f, detour, tally in steps:
            insert(key, f)
            if detour is not None:
                insert(*detour)
                delete(detour[0])
            if tally is not None:
                if obj.n != key:
                    raise ValueError("the run holds %d keys at size %d" % (obj.n, key))
                tally[obj.N] += 1
    run.counts = counts
    return run


def pure_insert_strategy(n: int) -> Callable[[object], None]:
    """Insert keys 1..n in order."""
    return growth_strategy(n)


def detour_strategy(n: int, detours: int) -> Callable[[object], None]:
    """Insert 1..n with ``detours`` interleaved insert-then-delete pairs."""
    return growth_strategy(n, detours)
