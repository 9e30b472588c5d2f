"""Command-line interface: benchmarks, HI verification, and the demo.

Exit codes: 0 success, 2 usage error (argparse), 1 runtime error.
"""

from __future__ import annotations

import argparse
import random
import sys

from . import bench
from .dynamics import CutoffSimulator, counterexample_structures
from .hiverify import (
    HiReport,
    amortized_counterexample_check,
    growth_strategy,
    shi_check,
    whi_check,
    worst_total_variation,
)
from .pairing import PairedDict
from .workloads import adversarial_rank, inverse_power_frequencies, zipf_frequencies


def _count(text):
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def _checked(check):
    """A float converter whose value must pass ``check``: the library's
    own test of the value, whose ValueError message is the usage error."""
    def convert(text):
        value = float(text)
        try:
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return convert


def _value(convert, expected, split=False):
    """The argparse type of one value, or with ``split`` of a list of
    comma-separated values, each read by ``convert``."""
    def parse(text):
        # argparse would name the converter in a ValueError's message
        try:
            values = [convert(x) for x in (text.split(",") if split else [text]) if x]
        except ValueError:
            values = []
        if not values:
            raise argparse.ArgumentTypeError("expected %s, got %r" % (expected, text))
        return values if split else values[0]
    return parse


def _structures(text):
    names = [x.strip() for x in text.split(",") if x.strip()]
    if not names:
        raise argparse.ArgumentTypeError("expected comma-separated structure names, got %r"
                                         % (text,))
    for name in names:
        if name not in bench.STRUCTURE_NAMES:
            raise argparse.ArgumentTypeError(
                "unknown structure %r (choose from %s)"
                % (name, ", ".join(bench.STRUCTURE_NAMES))
            )
    return names


_POSITIVE_INT = _value(_count, "an integer >= 1")
_INT_LIST = _value(_count, "comma-separated integers >= 1", split=True)

# flag -> argparse options; the dest is the bench runner's keyword.
# --alpha is checked by the test's law, so _add_bench adds it
_BENCH_FLAGS = {
    "--n": dict(type=_POSITIVE_INT),
    "--n-list": dict(dest="n_values", type=_INT_LIST, metavar="N_LIST"),
    "--delta": dict(type=_value(_checked(lambda delta: adversarial_rank(1, 1, delta)),
                                "a number")),
    "--queries": dict(type=_POSITIVE_INT),
    "--trials": dict(type=_POSITIVE_INT),
}

# bench test -> (runner, its frequency law, the flags passed to it)
_BENCH_TESTS = {
    "zipf-param": (bench.run_zipf_param, zipf_frequencies, ("--n", "--queries", "--trials")),
    "noisy-zipf": (bench.run_noisy_zipf, zipf_frequencies,
                   ("--n-list", "--alpha", "--delta", "--queries", "--trials")),
    "inverse-power": (bench.run_inverse_power, inverse_power_frequencies,
                      ("--n-list", "--alpha", "--delta", "--queries", "--trials")),
    "size": (bench.run_size, zipf_frequencies, ("--n-list",)),
}

# bench options that are not runner keywords
_BENCH_OUTPUTS = ("command", "test", "structures", "csv", "svg")


def _add_bench(p, test):
    """Register the flags passed to ``test``'s runner.  A flag left out
    is absent from the namespace, so the runner applies its own default."""
    _, law, flags = _BENCH_TESTS[test]
    alpha = _checked(lambda value: law(1, value))  # the law checks its alpha
    one_alpha = _value(alpha, "a number")
    if test == "zipf-param":
        # the sweep varies alpha; --alpha runs one value
        alphas = p.add_mutually_exclusive_group()
        alphas.add_argument("--alpha-list", dest="alphas", metavar="ALPHA_LIST",
                            type=_value(alpha, "comma-separated numbers", split=True))
        alphas.add_argument("--alpha", dest="alphas", metavar="ALPHA",
                            type=lambda text: [one_alpha(text)])
    for flag in flags:
        options = dict(type=one_alpha) if flag == "--alpha" else _BENCH_FLAGS[flag]
        p.add_argument(flag, **options)
    p.add_argument("--gamma", type=_value(_checked(lambda gamma: PairedDict(0, gamma=gamma)),
                                          "a number"),
                   help="paired search budget coefficient (presets: 1.3863, 3.82)")
    p.add_argument("--seed", dest="master_seed", type=int, metavar="SEED")
    p.add_argument("--structures", type=_structures,
                   default=list(bench.STRUCTURE_NAMES))
    p.add_argument("--csv", default=None, metavar="PATH")
    p.add_argument("--svg", default=None, metavar="PATH")


def build_parser():
    parser = argparse.ArgumentParser(prog="hidict")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bench", help="comparison-count benchmarks")
    bsub = b.add_subparsers(dest="test", required=True)
    for test in _BENCH_TESTS:
        # no abbreviations: --n would silently mean --n-list
        _add_bench(bsub.add_parser(test, argument_default=argparse.SUPPRESS,
                                   allow_abbrev=False), test)

    v = sub.add_parser("verify", help="history-independence verification")
    vsub = v.add_subparsers(dest="mode", required=True)
    vs = vsub.add_parser("shi")
    vs.add_argument("--universe", type=_POSITIVE_INT, default=128)
    vs.add_argument("--trials", type=_POSITIVE_INT, default=1000)
    vs.add_argument("--seed", type=int, default=0)
    vw = vsub.add_parser("whi")
    vw.add_argument("--n-list", type=_INT_LIST, default=[5, 16, 33])
    vw.add_argument("--samples", type=_POSITIVE_INT, default=10_000)
    vw.add_argument("--seed", type=int, default=0)

    d = sub.add_parser("demo", help="demonstrations")
    dsub = d.add_subparsers(dest="demo", required=True)
    dc = dsub.add_parser("counterexample")
    dc.add_argument("--seed", type=int, default=0)
    return parser


def _emit(rows, args):
    for r in rows:
        print("%s %s n=%d alpha=%g delta=%g avg=%.4f max=%d nodes=%d"
              % (r.test, r.structure, r.n, r.alpha, r.delta,
                 r.avg_comparisons, r.max_comparisons, r.nodes))
    if args.csv:
        bench.emit_csv(rows, args.csv)
        print("wrote %s" % args.csv)
    if args.svg:
        bench.emit_svg(rows, args.svg)
        print("wrote %s" % args.svg)


def _cmd_bench(args):
    runner = _BENCH_TESTS[args.test][0]
    keywords = {k: v for k, v in vars(args).items() if k not in _BENCH_OUTPUTS}
    rows = runner(args.structures, **keywords)
    _emit(rows, args)
    return 0


def _cmd_verify_shi(args):
    ok = True
    for name in ("zipzip", "threshold-zipzip", "paired-zipzip"):
        # the capacity holds the exhaustive check's 6 keys at any --universe
        factory = lambda: bench.make_structure(name, args.seed, 2 * max(args.universe, 6))
        exhaustive = shi_check(factory, 6, 0, args.seed)
        randomized = shi_check(factory, args.universe, args.trials, args.seed)
        mism = exhaustive.mismatches + randomized.mismatches
        trials = exhaustive.trials + randomized.trials
        ok = ok and mism == 0
        print("shi %-18s trials=%d mismatches=%d %s"
              % (name, trials, mism, "PASS" if mism == 0 else "FAIL"))
    neg = amortized_counterexample_check(args.seed)
    neg_ok = neg.mismatches >= 1
    ok = ok and neg_ok
    print("shi negative-control mismatches=%d %s"
          % (neg.mismatches, "PASS" if neg_ok else "FAIL"))
    print("RESULT verify-shi pass=%s" % str(ok).lower())
    return 0 if ok else 1


def _cmd_verify_whi(args):
    # one run per sample to the largest size, read at every listed size:
    # a sample's scheme seed does not depend on the size, so the run of a
    # smaller size is a prefix of it
    top = max(args.n_list)
    strategies = [growth_strategy(top, d, args.n_list) for d in (0, 1, 3)]
    whi_check(lambda s: CutoffSimulator("whi", random.Random(s)), top, args.samples,
              strategies, args.seed)
    ok = True
    for n in args.n_list:
        tv = worst_total_variation([run.counts[n] for run in strategies], args.samples)
        report = HiReport("weak", args.samples, 0, tv)
        ok = ok and report.passed
        print("whi n=%d samples=%d tv=%.4f %s"
              % (n, args.samples, report.tv_distance,
                 "PASS" if report.passed else "FAIL"))
    print("RESULT verify-whi pass=%s" % str(ok).lower())
    return 0 if ok else 1


def _cmd_demo(args):
    x, y = counterexample_structures(args.seed)
    print("trace X: insert 1,2,3,4 then delete 4 -> n=%d N=%d" % (x.n, x.N))
    print("trace Y: insert 1,2,3             -> n=%d N=%d" % (y.n, y.N))
    print("contents equal: %s" % (sorted(x.keys()) == sorted(y.keys())))
    print("fingerprints equal: %s" % (x.fingerprint() == y.fingerprint()))
    print("the cutoff (and the stored weights it implies) leaks the history")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "verify":
            return _cmd_verify_shi(args) if args.mode == "shi" else _cmd_verify_whi(args)
        return _cmd_demo(args)
    except Exception as exc:  # runtime failures -> exit 1 with a message
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
