"""``verify whi`` grows each sampled run once, to the largest listed size.

The reference below is the per-size loop the command ran before: one
``whi_check`` per size, each run from empty.  A sample's scheme seed does
not depend on the size, so the one long run must read the same N at every
listed size, and the command must print the same bytes and exit the same.
"""

import random
from collections import Counter

import pytest

from hidict.cli import main
from hidict.dynamics import CutoffSimulator
from hidict.hiverify import (
    _trial_frequency,
    growth_strategy,
    whi_check,
)


def _whi_factory(s):
    return CutoffSimulator("whi", random.Random(s))


def _reference_verify_whi(n_list, samples, seed):
    lines, ok = [], True
    for n in n_list:
        report = whi_check(_whi_factory, n, samples,
                           [growth_strategy(n), growth_strategy(n, 1),
                            growth_strategy(n, 3)], seed)
        ok = ok and report.passed
        lines.append("whi n=%d samples=%d tv=%.4f %s"
                     % (n, samples, report.tv_distance,
                        "PASS" if report.passed else "FAIL"))
    lines.append("RESULT verify-whi pass=%s" % str(ok).lower())
    return 0 if ok else 1, "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("n_list", ["16,5,5,1", "1,2,3,4", "7,40,2"])
def test_verify_whi_prints_what_the_per_size_loop_prints(n_list, seed, capsys):
    samples = 300
    code = main(["verify", "whi", "--n-list", n_list, "--samples", str(samples),
                 "--seed", str(seed)])
    out = capsys.readouterr().out
    sizes = [int(x) for x in n_list.split(",")]
    assert (code, out) == _reference_verify_whi(sizes, samples, seed)


def _distribution(strategy, s_idx, samples, seed):
    # whi_check's loop for one strategy, returning its N counts
    counts = Counter()
    for i in range(samples):
        obj = _whi_factory(seed * 1_000_003 + s_idx * samples + i)
        strategy(obj)
        counts[obj.N] += 1
    return counts


@pytest.mark.parametrize("seed", [0, 5])
def test_checkpoints_equal_the_per_size_runs(seed):
    samples, sizes = 200, (9, 1, 4, 3, 2)
    runs = [growth_strategy(9, d, sizes) for d in (0, 1, 3)]
    report = whi_check(_whi_factory, 9, samples, runs, seed)
    assert len(report.readings) == len(runs)
    for s_idx, (tally, detours) in enumerate(zip(report.readings, (0, 1, 3))):
        assert sum(tally.values()) == samples
        assert {len(cutoffs) for cutoffs in tally} == {len(sizes)}
        for j, m in enumerate(sizes):
            at_m = Counter(cutoffs[j] for cutoffs in tally.elements())
            assert at_m == _distribution(
                growth_strategy(m, detours), s_idx, samples, seed), (detours, m)


@pytest.mark.parametrize("detours", [0, 2])
def test_growth_returns_a_cutoff_per_listed_size(detours):
    # in the order listed, a size listed twice read twice
    sizes = [4, 1, 4, 2, 6]
    for s in range(20):
        expected = []
        for m in sizes:
            sim = _whi_factory(s)
            growth_strategy(m, detours)(sim)
            expected.append(sim.N)
        assert growth_strategy(6, detours, sizes)(_whi_factory(s)) == tuple(expected)
    assert growth_strategy(6, detours)(_whi_factory(0)) == ()


class _Recorder:
    def __init__(self):
        self.ops = []

    def insert(self, key, f):
        self.ops.append(("i", key, f))

    def delete(self, key):
        self.ops.append(("d", key))


@pytest.mark.parametrize("n,detours", [(1, 0), (1, 3), (5, 0), (5, 1), (5, 3), (4, 9)])
def test_strategies_keep_their_operations(n, detours):
    expected = []
    for k in range(1, n + 1):
        expected.append(("i", k, _trial_frequency(k)))
        if k <= detours:
            expected += [("i", n + k, _trial_frequency(n + k)), ("d", n + k)]
    rec = _Recorder()
    (growth_strategy(n, detours) if detours else growth_strategy(n))(rec)
    assert rec.ops == expected
    rec = _Recorder()
    growth_strategy(n, detours)(rec)
    assert rec.ops == expected


@pytest.mark.parametrize("size", [0, -1, 6])
def test_growth_refuses_a_size_the_run_never_reaches(size):
    # two empty tallies would read tv=0.0000 PASS
    with pytest.raises(ValueError, match="outside 1..5"):
        growth_strategy(5, 1, [3, size])


class _LeakyDelete(CutoffSimulator):
    def delete(self, key=None):
        pass


def test_growth_checks_the_size_it_tallies():
    run = growth_strategy(3, 1, [1])
    with pytest.raises(ValueError, match="holds 2 keys at size 1"):
        run(_LeakyDelete("whi", random.Random(0)))
    # a run that holds one key at size 1 reads N = 1, the only WHI cutoff
    assert run(_whi_factory(0)) == (1,)
