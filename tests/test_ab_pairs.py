"""``tools/ab_pairs.py``'s verdicts, on synthetic pairs: no perfbench runs."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def tool():
    spec = importlib.util.spec_from_file_location(
        "ab_pairs", os.path.join(ROOT, "tools", "ab_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]  # IQR 0.175


@pytest.mark.parametrize("new, higher, bound, expected", [
    # lower is better: 10 of 10 pairs won, by far more than the parent's IQR
    ([x - 1.0 for x in PARENT], False, 0.25, "gain"),
    # 9 wins and a tie are a gain; 8 wins and two ties are not
    ([x - 1.0 for x in PARENT[:9]] + PARENT[9:], False, 0.25, "gain"),
    ([x - 1.0 for x in PARENT[:8]] + PARENT[8:], False, 0.25, "within"),
    # every pair won, by less than the parent's IQR
    ([x - 0.01 for x in PARENT], False, 0.25, "within"),
    # higher is better: the same runs are a loss
    ([x - 1.0 for x in PARENT], True, 0.25, "within"),
    ([x + 1.0 for x in PARENT], True, 0.25, "gain"),
    # 30% slower against a bound of 25%, and a bound of 50%
    ([x * 1.3 for x in PARENT], False, 0.25, "worse"),
    ([x * 1.3 for x in PARENT], False, 0.5, "within"),
    ([x * 0.7 for x in PARENT], True, 0.25, "worse"),
    # a per-layer metric has no bound
    ([x * 1.3 for x in PARENT], False, None, "-"),
    ([x - 1.0 for x in PARENT], False, None, "gain"),
    # the parent's IQR of 0.175 is wider than a bound of 1% of 10
    ([x + 0.05 for x in PARENT], False, 0.01, "unresolved"),
])
def test_verdicts(tool, new, higher, bound, expected):
    assert tool.verdict(PARENT, new, higher, bound) == expected


def test_a_change_that_beats_every_parent_run_is_resolved(tool):
    # the parent's IQR (8) is wider than its bound (1.25), and the change's
    # median (0.9) is better by less than that IQR, but every change run is
    # lower than every parent run
    parent = [1.0, 1.0, 1.0, 5.0, 5.0, 5.0, 5.0, 9.0, 9.0, 9.0]
    assert tool.verdict(parent, [0.9] * 10, False, 0.25) == "within"
    assert tool.verdict(parent, [0.9] * 9 + [1.0], False, 0.25) == "unresolved"


def test_bounds_and_directions_come_from_the_benchmark(tool):
    rules = tool.metric_rules(ROOT)
    assert rules["check_s"] == (False, 0.25)
    assert rules["ops_per_s"] == (True, 0.25)
    assert rules["bytes_per_key"] == (False, 0.05)
    assert rules["pairing.fallback_rate"] == (False, None)


def test_the_table_prints_a_verdict_per_metric(tool, monkeypatch, capsys):
    def run_once(checkout, workload, seed, seconds):
        slow = 1.3 if checkout == "change" else 1.0
        return {"failed": 0, "metrics": {"check_s": {"value": slow * (1 + seed / 1000)},
                                         "bytes_per_key": {"value": 100.0 / slow}}}

    monkeypatch.setattr(tool, "run_once", run_once)
    monkeypatch.setattr(tool, "metric_rules",
                        lambda checkout: {"check_s": (False, 0.25),
                                          "bytes_per_key": (False, 0.05)})
    assert tool.main(["parent", "change", "--workload", "w", "--seeds", "1-10"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1].split()[-1] == "verdict"
    assert [(row.split()[0], row.split()[-1]) for row in rows[2:]] == [
        ("bytes_per_key", "gain"), ("check_s", "worse")]
