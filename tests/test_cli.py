import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from hidict.cli import build_parser, main
from test_cli_stdout import CASES

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["bench"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["bench", "zipf-param", "--structures", "splay"])
    assert e.value.code == 2


@pytest.mark.parametrize("argv", [
    "bench noisy-zipf --n 64",
    "bench size --alpha 3",
    "bench size --alpha-list 3",
    "bench size --trials 99",
    "bench size --queries 10",
    "bench size --delta 0.5",
    "bench zipf-param --n-list 16,32",
    "bench zipf-param --delta 0.9",
    "bench zipf-param --alpha 2 --alpha-list 1,2",
    "bench inverse-power --alpha-list 1,2",
    "bench inverse-power --n-list ,",
    "verify shi --univ 16",
    "verify whi --sample 10",
    "demo counterexample --se 1",
])
def test_unused_bench_flags_exit_2(argv, capsys):
    # a flag its runner does not read, an abbreviated flag and an empty
    # list are usage errors, not ignored; no command takes an abbreviation,
    # so a README line that abbreviates a renamed flag fails to parse
    with pytest.raises(SystemExit) as e:
        main(argv.split())
    assert e.value.code == 2


@pytest.mark.parametrize("argv, flag", [
    ("bench size --n-list x", "--n-list"),
    ("verify whi --n-list 5,y", "--n-list"),
    ("bench zipf-param --alpha z", "--alpha"),
    ("bench zipf-param --alpha-list 1,q", "--alpha-list"),
    ("bench zipf-param --n z", "--n"),
    ("verify whi --samples 1e4", "--samples"),
])
def test_bad_values_name_the_flag_not_the_converter(argv, flag, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv.split())
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "argument %s: expected " % flag in err
    # the helpers, and the name argparse would show: that of _value's closure
    for name in ("_value", "_checked", "_count", "parse", "convert"):
        assert name not in err


@pytest.mark.parametrize("argv, flag", [
    ("verify whi --samples 0", "--samples"),
    ("verify whi --n-list 0", "--n-list"),
    ("verify whi --n-list 5,-3", "--n-list"),
    ("verify shi --universe 0", "--universe"),
    ("verify shi --trials 0", "--trials"),
    ("bench zipf-param --n 50 --queries 0 --trials 1", "--queries"),
    ("bench zipf-param --n 50 --trials 0", "--trials"),
    ("bench zipf-param --n 0", "--n"),
    ("bench zipf-param --n 1.5", "--n"),
    ("bench noisy-zipf --n-list 16,0", "--n-list"),
    ("bench size --n-list -1", "--n-list"),
    ("bench size --structures ,", "--structures"),
])
def test_nothing_to_run_is_a_usage_error(argv, flag, capsys):
    # caught at parse time, not as a division by zero, a vacuous PASS or
    # an empty run
    with pytest.raises(SystemExit) as e:
        main(argv.split())
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument %s: expected " % flag in captured.err


@pytest.mark.parametrize("argv, flag, reason", [
    ("bench noisy-zipf --n-list 50 --trials 1 --queries 10 --delta 2", "--delta",
     "delta must be in [0, 1]"),
    ("bench noisy-zipf --n-list 50 --trials 1 --queries 10 --delta nan", "--delta",
     "delta must be in [0, 1]"),
    ("bench size --structures avl --gamma 0", "--gamma", "gamma must be positive"),
    ("bench size --structures avl --gamma nan", "--gamma", "gamma must be positive"),
    ("bench size --structures avl --gamma 1e308", "--gamma",
     "gamma must be positive and at most max double / 64, got 1e+308"),
    ("bench zipf-param --alpha -1 --n 8 --trials 1 --queries 10", "--alpha",
     "alpha must be finite and >= 1"),
    ("bench zipf-param --alpha nan --n 8 --trials 1 --queries 10", "--alpha",
     "alpha must be finite and >= 1"),
    ("bench noisy-zipf --alpha 0.5 --n-list 8 --trials 1 --queries 10", "--alpha",
     "alpha must be finite and >= 1"),
    ("bench inverse-power --alpha 1 --n-list 8 --trials 1 --queries 10", "--alpha",
     "alpha must be finite and > 1"),
    ("bench inverse-power --alpha inf --n-list 8 --trials 1 --queries 10", "--alpha",
     "alpha must be finite and > 1"),
    ("bench zipf-param --alpha-list 2,inf --n 8 --trials 1 --queries 10", "--alpha-list",
     "alpha must be finite and >= 1"),
])
def test_bad_float_flags_are_usage_errors(argv, flag, reason, tmp_path, capsys):
    # the library's own check of the value runs at parse time: nothing is
    # run and nothing is written
    csv = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as e:
        main(argv.split() + ["--csv", str(csv)])
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument %s: %s" % (flag, reason) in captured.err
    assert not csv.exists()


@pytest.mark.parametrize("argv", [
    "bench noisy-zipf --n-list 8 --alpha 1 --delta 1 --gamma 3.82",
    "bench inverse-power --n-list 8 --alpha 1.0001 --delta 0 --gamma 1e-3",
    "bench zipf-param --n 8 --alpha-list 1,3",
])
def test_float_flags_accept_their_bounds(argv, capsys):
    assert main(argv.split() + ["--trials", "1", "--queries", "10",
                                "--structures", "paired-zipzip"]) == 0


def test_verify_shi_smallest_universe(capsys):
    # the exhaustive check's 6 keys fit the thresholded dict at any universe
    assert main(["verify", "shi", "--universe", "1", "--trials", "1"]) == 0
    assert "RESULT verify-shi pass=true" in capsys.readouterr().out


def test_verify_shi_at_a_small_universe_ignores_trials(capsys):
    # at a universe of 6 or below the randomized check tries every insertion
    # order: 3! orders of keys 1..3 beside the exhaustive check's 6! of 1..6
    assert main(["verify", "shi", "--universe", "3", "--trials", "1000"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[2] for line in out[:3]] == ["trials=726"] * 3


def test_bench_flags_reach_the_runner(capsys):
    assert main(["bench", "size", "--n-list", "16", "--structures", "avl"]) == 0
    assert "size avl n=16 alpha=2 " in capsys.readouterr().out
    assert main(["bench", "zipf-param", "--alpha", "2", "--n", "16", "--queries", "50",
                 "--trials", "1", "--structures", "avl"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith("zipf-param avl n=16 alpha=2 ")


def _readme_commands():
    block = README.read_text().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("hidict ")]


def test_readme_commands_parse():
    # parsed, not run: a flag the CLI lost or renamed fails here
    commands = _readme_commands()
    assert len(commands) >= 7
    parser = build_parser()
    for line in commands:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail("a README command does not parse: " + line)


def test_runtime_error_exits_1(tmp_path, capsys):
    rc = main(["bench", "size", "--n-list", "8",
               "--structures", "avl",
               "--csv", str(tmp_path / "no" / "dir" / "x.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_bench_size_with_outputs(tmp_path, capsys):
    csv = tmp_path / "size.csv"
    svg = tmp_path / "size.svg"
    rc = main(["bench", "size", "--n-list", "16,32",
               "--structures", "avl,paired-zipzip",
               "--csv", str(csv), "--svg", str(svg)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "size avl n=16" in out
    assert "nodes=64" in out  # paired at n=32
    assert csv.exists() and svg.exists()
    assert csv.read_text().count("\n") == 5  # header + 4 rows


def test_bench_zipf_param_small(capsys):
    rc = main(["bench", "zipf-param", "--n", "32", "--queries", "500",
               "--trials", "1", "--alpha-list", "2.0",
               "--structures", "avl,threshold-zipzip"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "zipf-param threshold-zipzip n=32" in out


def test_verify_shi_small(capsys):
    rc = main(["verify", "shi", "--universe", "16", "--trials", "10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "RESULT verify-shi pass=true" in out
    assert "negative-control" in out


def test_verify_whi_small(capsys):
    rc = main(["verify", "whi", "--n-list", "6", "--samples", "4000"])
    assert rc == 0
    assert "RESULT verify-whi pass=true" in capsys.readouterr().out


def test_demo_counterexample(capsys):
    rc = main(["demo", "counterexample"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "n=3 N=16" in out
    assert "n=3 N=4" in out
    assert "contents equal: True" in out
    assert "fingerprints equal: False" in out


def test_python_m_hidict_runs_from_a_checkout():
    # the README's commands, as `python -m hidict` with src/ on the path
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "hidict", "demo", "counterexample"],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, check=True)
    assert hashlib.sha256(proc.stdout).hexdigest() == CASES["demo counterexample"]
