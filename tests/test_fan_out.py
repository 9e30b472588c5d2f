"""The HI checks give the same results on one core and on a worker pool.

``hiverify.fan_out`` runs a check's independent units on forked workers
when two or more cores are usable, and in-process otherwise.  Every
sample's scheme seed and every trial's RNG stream are fixed by the seed,
so the reports, with their readings, and the CLI's stdout must not depend
on the number of cores, and no worker may outlive the call.
"""

import multiprocessing
import os
import random
import threading

import pytest

from hidict import hiverify
from hidict.cli import main
from hidict.dynamics import CutoffSimulator
from hidict.hiverify import fan_out, growth_strategy, whi_check

needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="the worker pool forks")


def _cores(monkeypatch, n):
    monkeypatch.setattr(hiverify, "_usable_cores", lambda: n)


def _whi_factory(s):
    return CutoffSimulator("whi", random.Random(s))


@pytest.mark.parametrize("cores", [1, 2])
def test_fan_out_keeps_task_order(cores, monkeypatch):
    _cores(monkeypatch, cores)
    offset = 7  # a closure: the workers get the function by fork

    results = fan_out(lambda t: (t * t + offset, os.getpid()), range(9))
    assert [r for r, _ in results] == [t * t + offset for t in range(9)]
    in_process = {pid for _, pid in results} == {os.getpid()}
    assert in_process == (cores == 1 or "fork" not in multiprocessing.get_all_start_methods())
    assert multiprocessing.active_children() == []
    assert fan_out(abs, []) == []


def test_fan_out_runs_in_process_beside_another_thread(monkeypatch):
    _cores(monkeypatch, 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(10,))
    other.start()
    try:
        assert fan_out(lambda t: (t, os.getpid()), [1, 2]) == [(1, os.getpid()),
                                                                (2, os.getpid())]
    finally:
        release.set()
        other.join(10)
    assert not other.is_alive()


def _whi_run(monkeypatch, cores, seed):
    _cores(monkeypatch, cores)
    runs = [growth_strategy(12, d, (12, 3, 7)) for d in (0, 1, 3)]
    return whi_check(_whi_factory, 12, 203, runs, seed)


@pytest.mark.parametrize("seed", [0, 4])
def test_whi_check_is_the_same_on_one_and_two_cores(seed, monkeypatch):
    one = _whi_run(monkeypatch, 1, seed)
    two = _whi_run(monkeypatch, 2, seed)
    assert one == two
    assert len(one.readings) == 3
    for tally in one.readings:
        assert sum(tally.values()) == 203


class _PidTally:
    """Inserts keys 1..n; returns the pid that ran the sample."""

    def __init__(self, n):
        self.n = n

    def __call__(self, obj):
        for key in range(1, self.n + 1):
            obj.insert(key, 0.1)
        return os.getpid()


@needs_fork
def test_tallies_sum_to_samples_when_a_worker_runs_two_ranges(monkeypatch):
    _cores(monkeypatch, 2)
    samples = 40 * hiverify._WHI_CHUNKS
    strategies = [_PidTally(5), _PidTally(5)]
    report = whi_check(_whi_factory, 5, samples, strategies, 0)
    per_range = samples // hiverify._WHI_CHUNKS
    ran_two = False
    for pids in report.readings:
        assert sum(pids.values()) == samples
        assert os.getpid() not in pids
        ran_two = ran_two or max(pids.values()) >= 2 * per_range
    # 16 ranges on 2 workers: one of them ran two ranges of one strategy
    assert ran_two


@pytest.mark.parametrize("cores", [1, 2])
def test_a_strategy_off_target_raises_the_same_error(cores, monkeypatch):
    _cores(monkeypatch, cores)
    with pytest.raises(ValueError, match=r"^strategy 1 ends at n=4, not target_n=5$"):
        whi_check(_whi_factory, 5, 30, [growth_strategy(5), growth_strategy(4)], 0)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("argv", ["verify shi --universe 20 --trials 15 --seed 3",
                                  "verify whi --n-list 9,4 --samples 250 --seed 2"])
def test_verify_prints_the_same_on_one_and_two_cores(argv, monkeypatch, capsys):
    runs = []
    for cores in (1, 2):
        _cores(monkeypatch, cores)
        code = main(argv.split())
        assert multiprocessing.active_children() == []
        runs.append((code, capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert "RESULT verify-" in runs[0][1]
