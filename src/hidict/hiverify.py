"""Executable history-independence checks.

Strong HI is tested exactly: every operation sequence realizing a content
set must produce a byte-identical fingerprint.  Weak HI is tested
distributionally: with the structural seed fixed, the cutoff N is the only
history-sensitive component of a rebuilt threshold structure, so we compare
the empirical N distributions that different from-empty strategies induce,
using total-variation distance.
"""

from __future__ import annotations

import bisect
import itertools
import multiprocessing
import os
import random
import threading
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .core import show_value
from .dynamics import counterexample_structures


@dataclass
class HiReport:
    mode: str  # "strong" or "weak"
    trials: int
    mismatches: int
    tv_distance: Optional[float] = None
    readings: Sequence[Counter] = ()  # whi_check's: see there

    @property
    def passed(self) -> bool:
        if self.mode == "strong":
            return self.mismatches == 0
        return self.tv_distance is not None and self.tv_distance <= 0.05


# the function a fan_out worker runs, set by the pool's initializer
_worker_fn = None


def _set_worker_fn(fn):
    global _worker_fn
    _worker_fn = fn


def _call_worker_fn(task):
    return _worker_fn(task)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def fan_out(fn: Callable, tasks: Sequence) -> list:
    """``[fn(t) for t in tasks]``, in task order.

    The tasks run on a pool of ``min(len(tasks), usable cores)`` forked
    workers, which get ``fn`` through the pool's initializer, so a closure
    works and only the tasks and the results are pickled.  With fewer than
    two usable cores, without ``fork``, inside a worker, or beside another
    thread (a lock it holds at the fork would stay held in the worker),
    the same tasks run here through a plain map.  A worker keeps what
    ``fn`` changes between its tasks and the caller sees none of it:
    ``fn`` returns all it computes.  Every worker has exited when this
    returns.
    """
    tasks = list(tasks)
    workers = min(len(tasks), _usable_cores())
    if (workers < 2 or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon
            or threading.active_count() > 1):
        return list(map(fn, tasks))
    pool = multiprocessing.get_context("fork").Pool(workers, _set_worker_fn, (fn,))
    try:
        results = pool.map(_call_worker_fn, tasks, chunksize=1)
    except BaseException:
        pool.terminate()
        raise
    else:
        pool.close()
    finally:
        pool.join()
    return results


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
    ordered = []  # present, sorted: the victims are drawn from it
    for key in order:
        ops.append(("i", key))
        present.add(key)
        bisect.insort(ordered, key)
        # occasional delete/reinsert detour of an already-present key
        if rng.random() < 0.3:
            victim = rng.choice(ordered)
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

    For universe_size from 1 to 6 every insertion order of the full key set
    is enumerated; otherwise ``trials`` random subsets are realized by two
    distinct operation sequences each (including delete/reinsert and
    transient-key detours) and compared to the sorted-order build.  An
    empty universe, or no trials above 6 keys, raises ``ValueError``: a
    pass must mean that something was compared.
    """
    if universe_size < 1:
        raise ValueError("shi_check needs universe_size >= 1, got %s" % show_value(universe_size))
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
        raise ValueError("shi_check needs trials >= 1 above a universe of 6, got %s"
                         % show_value(trials))
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


# sample ranges per strategy that whi_check hands to fan_out
_WHI_CHUNKS = 8


def whi_check(structure_factory: Callable[[int], object], target_n: int,
              samples: int, strategies: Sequence[Callable[[object], object]],
              seed: int = 0) -> HiReport:
    """Weak-HI distributional check over the cutoff marginal.

    ``structure_factory(scheme_seed)`` builds an empty structure exposing
    ``insert``/``delete``, the size ``n`` and the cutoff ``N``; each
    strategy drives it from empty to the same target content set, of
    ``target_n`` keys (a ValueError otherwise), ``samples`` >= 1 times
    each.  Reports the maximum pairwise TV distance between the
    strategies' empirical N distributions, and in ``readings`` a Counter
    per strategy of the (hashable) values its runs returned.  The scheme
    seed of a sample does not depend on ``target_n``, so a run grown
    further passes through the states of the shorter runs (see
    ``growth_strategy``).

    The samples run in ranges through ``fan_out``, so the factory and the
    strategies may run in forked workers.
    """
    if len(strategies) < 2:
        raise ValueError("whi_check needs at least 2 strategies")
    if samples < 1:
        raise ValueError("whi_check needs samples >= 1, got %s" % show_value(samples))

    def run_range(task):
        # the range's N counts and the tally of its runs' returns
        s_idx, start, stop = task
        strategy = strategies[s_idx]
        counts, reads = Counter(), Counter()
        for i in range(start, stop):
            obj = structure_factory(seed * 1_000_003 + s_idx * samples + i)
            reads[strategy(obj)] += 1
            if obj.n != target_n:
                raise ValueError("strategy %d ends at n=%d, not target_n=%s"
                                 % (s_idx, obj.n, show_value(target_n)))
            counts[obj.N] += 1
        return counts, reads

    chunks = min(samples, _WHI_CHUNKS)
    tasks = [(s_idx, samples * j // chunks, samples * (j + 1) // chunks)
             for s_idx in range(len(strategies)) for j in range(chunks)]
    distributions = [Counter() for _ in strategies]
    readings = [Counter() for _ in strategies]
    for (s_idx, _, _), (counts, reads) in zip(tasks, fan_out(run_range, tasks)):
        distributions[s_idx].update(counts)
        readings[s_idx].update(reads)
    return HiReport("weak", samples, 0, worst_total_variation(distributions, samples),
                    readings)


def growth_strategy(n: int, detours: int = 0,
                    sizes: Sequence[int] = ()) -> Callable[[object], tuple]:
    """Insert keys 1..n; after each of the first ``detours`` keys k, insert
    and then delete key n + k.

    The run returns a tuple of the cutoffs N it read at ``sizes``, in
    their order.  N at size m is read after key m and its detour, in the
    state a run of ``growth_strategy(m, detours)`` ends in when the
    structure ignores keys and frequencies (as ``CutoffSimulator`` does).
    A size outside 1..n, which the run never reaches, is a ValueError.
    """
    for m in sizes:
        if not 1 <= m <= n:
            raise ValueError("size %s is outside 1..%s, the sizes the run passes"
                             % (show_value(m), show_value(n)))
    steps = [(k, _trial_frequency(k),
              (n + k, _trial_frequency(n + k)) if k <= detours else None,
              k in sizes)
             for k in range(1, n + 1)]

    def run(obj):
        insert, delete = obj.insert, obj.delete
        read = {}
        for key, f, detour, reads in steps:
            insert(key, f)
            if detour is not None:
                insert(*detour)
                delete(detour[0])
            if reads:
                if obj.n != key:
                    raise ValueError("the run holds %d keys at size %d" % (obj.n, key))
                read[key] = obj.N
        return tuple(map(read.__getitem__, sizes))
    return run
