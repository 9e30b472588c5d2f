"""hidict benchmark: one workload per run, one JSON result as the last line.

    python3 perfbench/run.py --workload lookup-zipf --seed 1 --seconds 8 --trace 0

Workloads: lookup-zipf, churn-whi, paper-check (see perfbench/README.md).
A run sets the workload up three or five times; setup_s is the median.
It replays the first operations of the stream on the first two builds and
exits with an error unless every exact count repeats.  The third build is
driven in a closed loop by one caller for --seconds.  Every reply is checked
against a sorted-list model, and the final state against the workload's
checks.  With --trace 0 the run then measures memory with tracemalloc in a
pass of its own and prints the end-to-end metrics.  With --trace 1 the
first set-up, both count passes and the second half of the window run with
the layer hooks of perfbench/spans.py installed.  The first half of the
window runs without them, which gives the tracing overhead, and the run
prints the per-layer metrics.  End-to-end times are scaled to a nominal
machine speed by a reference walk timed beside them (perfbench/speed.py);
per-layer times are raw.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import statistics
import sys
import tracemalloc
from array import array
from time import perf_counter, perf_counter_ns

import numpy as np

# loads, and anything else that imports hidict, is imported inside the
# functions, after _load_library has put the checkout's src/ on the path
from spans import Hooks, Tracer
from speed import Clock, Reference, factor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACE_DIR = os.path.join(ROOT, ".perfbench_out")
KINDS = ("search", "predecessor", "range", "insert", "delete")
QUERY_KINDS = {"search", "predecessor", "range"}
SEARCH_SPANS = {"structures.search", "structures.search_budgeted", "structures.avl.search"}
INSERT_SPANS = {"structures.insert", "structures.avl.insert", "thresholding.insert",
                "pairing.insert", "dynamics.insert"}
BENCH_PARENTS = {"bench.run_one", "bench.run_size"}
STRUCTURE_LABELS = ("avl", "zipzip", "biased-zipzip", "threshold-zipzip",
                    "paired-zipzip", "l-treap", "c-treap", "dynamic-threshold")


def _load_library():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "hidict", "__init__.py")):
        raise SystemExit("perfbench: no hidict sources under %s" % src)
    sys.path.insert(0, src)


class Tally:
    """Operations and checks attempted, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, what):
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(what)

    def verify(self, label, ops, replies):
        self.attempted += len(ops)
        for (kind, args, expect), reply in zip(ops, replies):
            if isinstance(reply, Exception):
                wrong = True
            elif kind == "search":
                wrong = reply.found != (expect is not None) or reply.payload != expect
            else:
                wrong = reply != expect
            if wrong:
                self.fail("%s %s%r -> %r, expected %r" % (label, kind, args, reply, expect))


def run_ops(fns, ops, lat, tracer, label):
    """Apply ops in order, one caller, timing each call alone."""
    replies = []
    append = replies.append
    for kind, args, _ in ops:
        fn = fns[kind]
        if tracer is not None:
            tracer.begin(label, kind)
        t0 = perf_counter_ns()
        try:
            reply = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            reply = exc
        lat[kind].append(perf_counter_ns() - t0)
        append(reply)
    return replies


def window(wl, structs, stream, seconds, lat, scales, tally, ref, tracer=None):
    """Closed loop for ``seconds``: each block goes to every structure in turn.

    After each block, the workload's next four detours (if it has any) go to
    every structure; they are timed like the rest but left out of the rate.
    A reference walk is timed before every block.  Each block's time, and
    each latency sample taken during it, is scaled by the walks before the
    eleven nearest blocks; ``scales`` gets one factor per latency sample.
    Returns operations per second of time inside the calls' loop, raw and
    scaled; generating and checking the blocks happens outside that loop.
    """
    from loads import Cycle

    fns = {label: wl.bind(label, s) for label, s in structs.items()}
    detours = wl.detours()
    side = Cycle(detours, size=8) if detours else None
    ops = 0
    walks, busy, starts = [], [], []
    end = perf_counter() + seconds
    while perf_counter() < end:
        walks.append(ref.sample())
        starts.append({kind: len(samples) for kind, samples in lat.items()})
        block = stream.next_block()
        spent = 0
        for label in structs:
            t0 = perf_counter_ns()
            replies = run_ops(fns[label], block, lat, tracer, label)
            spent += perf_counter_ns() - t0
            tally.verify(label, block, replies)
            ops += len(block)
        busy.append(spent)
        if side is not None:
            block = side.next_block()
            for label in structs:
                tally.verify(label, block, run_ops(fns[label], block, lat, tracer, label))
    factors = [factor(walks[max(0, i - 5):i + 6]) for i in range(len(walks))]
    for kind, samples in lat.items():
        ends = [start[kind] for start in starts[1:]] + [len(samples)]
        for f, start, stop in zip(factors, (start[kind] for start in starts), ends):
            scales[kind].extend([f] * (stop - start))
    scaled = sum(f * spent for f, spent in zip(factors, busy))
    return ops / (sum(busy) / 1e9), ops / (scaled / 1e9)


def count_pass(wl, structs, tally, tracer=None):
    """Exact counts from the stream's first ops and the detours, on one build."""
    from hidict import ComparisonTally

    stream = wl.stream()
    ops = []
    while len(ops) < wl.count_ops:
        ops.extend(stream.next_block())
    ops.extend(wl.detours())
    counts = {}
    searches = comparisons = deepest = 0
    range_nodes = range_keys = 0
    nodes = ComparisonTally()
    for label, s in structs.items():
        fns = wl.bind(label, s)
        replies = []
        own_searches = own_comparisons = 0
        for kind, args, _ in ops:
            if tracer is not None:
                tracer.begin(label, kind)
            try:
                if kind == "range":
                    nodes.reset()
                    reply = s.range_query(*args, nodes)
                    range_nodes += nodes.count
                    range_keys += len(reply)
                else:
                    reply = fns[kind](*args)
            except Exception as exc:  # counted as a failed operation
                reply = exc
            if kind == "search" and not isinstance(reply, Exception):
                own_searches += 1
                own_comparisons += reply.comparisons
                deepest = max(deepest, reply.comparisons)
            replies.append(reply)
        tally.verify(label, ops, replies)
        searches += own_searches
        comparisons += own_comparisons
        counts["structures.search_comparisons." + label] = own_comparisons / own_searches
    counts["avg_comparisons"] = comparisons / searches
    counts["max_comparisons"] = deepest
    counts["structures.range_nodes_per_result"] = range_nodes / range_keys if range_keys else 0.0
    paired = structs.get("paired-zipzip")
    if paired is not None:
        counts["pairing.nodes_per_key"] = paired.node_count() / len(paired)
    if tracer is not None:
        inserts = sum(1 for kind, _, _ in ops if kind == "insert") * len(structs)
        queries = sum(1 for kind, _, _ in ops if kind in QUERY_KINDS) * len(structs)
        writes = tracer.total({"core.oracle"}, kind={"insert", "delete"})[0]
        reads = tracer.total({"core.oracle"}, kind=QUERY_KINDS)[0]
        counts["core.oracle_calls_per_insert"] = writes / inserts if inserts else 0.0
        counts["core.oracle_calls_per_query"] = reads / queries if queries else 0.0
        paired_searches = tracer.total({"pairing.search"})[0]
        fallbacks = tracer.total({"structures.search"}, parent={"pairing.search"})[0]
        wasted = tracer.events["pairing.wasted_comparisons"]
        counts["pairing.fallback_rate"] = (fallbacks / paired_searches
                                           if paired_searches else 0.0)
        counts["pairing.wasted_comparisons"] = (wasted / paired_searches
                                                if paired_searches else 0.0)
        counts["dynamics.rebuilds"] = tracer.total({"dynamics.rebuild"})[0]
        counts["dynamics.key_moves"] = tracer.events["dynamics.key_moves"]
    return counts


def bytes_per_key(wl):
    """Traced bytes the structures hold per key, caller's keys and payloads excluded."""
    from loads import build

    structs, items = wl.memory_build()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        build(structs, items, wl.bind)
        gc.collect()
        used = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return used / (len(items) * len(structs))


def _percentile_us(samples, scales, q):
    values = np.frombuffer(samples, dtype=np.int64) * np.frombuffer(scales, dtype=np.float64)
    return float(np.percentile(values, q)) / 1e3


def measure(wl, seconds, trace):
    ref = Reference()
    tally = Tally()
    lat = {kind: array("q") for kind in KINDS}
    scales = {kind: array("d") for kind in KINDS}
    timing = Tracer() if trace else None
    hooked = Hooks(timing) if trace else contextlib.nullcontext()
    setup_times, setup_scaled, counts = [], [], []
    for rep in range(wl.setup_reps):
        structs = None
        gc.collect()
        # the benchmark's own inputs are left out of the collector's scans,
        # so collections in set-up and in the window walk library objects
        gc.freeze()
        with hooked if rep == 0 else contextlib.nullcontext():
            if trace:
                timing.begin("", "setup")
            structs, seconds_taken, scale = ref.around(wl.setup)
            setup_times.append(seconds_taken)
            setup_scaled.append(seconds_taken * scale)
        if rep < 2:
            counter = Tracer(span_cap=0) if trace else None
            with Hooks(counter) if trace else contextlib.nullcontext():
                counts.append(count_pass(wl, structs, tally, counter))
    if counts[0] != counts[1]:
        diff = {k: (counts[0][k], counts[1].get(k)) for k in counts[0]
                if counts[0][k] != counts[1].get(k)}
        raise SystemExit("perfbench: exact counts differ between two builds from "
                         "one seed: %r" % diff)
    wl.before_window(structs)
    stream = wl.stream()
    gc.collect()
    result = {"counts": counts[0], "setup_s": statistics.median(setup_scaled),
              "setup_times": setup_times}
    if trace:
        result["untraced_ops_per_s"] = window(wl, structs, stream, seconds / 2, lat,
                                              scales, tally, ref)[0]
        with hooked:
            result["ops_per_s"] = window(wl, structs, stream, seconds / 2, lat, scales,
                                         tally, ref, timing)[0]
            timing.begin("", "check")
            checks, failures = wl.check(structs, stream, Clock(ref))
        result["absent"] = hooked.absent
    else:
        result["raw_ops_per_s"], result["ops_per_s"] = window(
            wl, structs, stream, seconds, lat, scales, tally, ref)
        clocks = []
        for _ in range(wl.check_reps):
            clocks.append(Clock(ref))
            checks, failures = wl.check(structs, stream, clocks[-1])
        result["check_s"] = statistics.median(clock.scaled for clock in clocks)
        result["check_times"] = [clock.raw for clock in clocks]
    tally.attempted += checks
    for failure in failures:
        tally.fail(failure)
    structs = None
    if not trace:
        result["bytes_per_key"] = bytes_per_key(wl)
    result["lat"] = lat
    result["scales"] = scales
    return result, tally, timing


def end_to_end(r):
    """Every end-to-end metric; times are scaled to the nominal machine speed."""
    lat, scales, counts = r["lat"], r["scales"], r["counts"]

    def us(kind, q):
        return _percentile_us(lat[kind], scales[kind], q)

    return {
        "setup_s": (r["setup_s"], "s"),
        "ops_per_s": (r["ops_per_s"], "1/s"),
        "search_us_p50": (us("search", 50), "us"),
        "search_us_p99": (us("search", 99), "us"),
        "range_us_p50": (us("range", 50), "us"),
        "insert_us_p50": (us("insert", 50), "us"),
        "insert_us_p99": (us("insert", 99), "us"),
        "delete_us_p50": (us("delete", 50), "us"),
        "delete_us_p99": (us("delete", 99), "us"),
        "avg_comparisons": (counts["avg_comparisons"], "count"),
        "max_comparisons": (counts["max_comparisons"], "count"),
        "bytes_per_key": (r["bytes_per_key"], "B"),
        "check_s": (r["check_s"], "s"),
    }


def per_layer(r, wl, t):
    from loads import PAPER_COMMANDS
    import hidict.bench

    counts = r["counts"]

    def mean_us(names, **match):
        calls, total, _ = t.total(names, **match)
        return total / calls / 1e3 if calls else 0.0

    def self_us(names, **match):
        calls, _, own = t.total(names, **match)
        return own / calls / 1e3 if calls else 0.0

    def seconds(names, **match):
        return t.total(names, **match)[1] / 1e9

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    oracle_calls, oracle_ns, _ = t.total({"core.oracle"})
    m["core.oracle_calls_per_insert"] = (counts.get("core.oracle_calls_per_insert", 0.0), "count")
    m["core.oracle_calls_per_query"] = (counts.get("core.oracle_calls_per_query", 0.0), "count")
    m["core.oracle_us"] = (ratio(oracle_ns / 1e3, oracle_calls), "us")
    m["core.oracle_share"] = (ratio(oracle_ns, t.total(INSERT_SPANS, parent={None})[1]),
                              "ratio")
    m["structures.rank_us"] = (mean_us({"structures.rank"}), "us")
    m["structures.prewalk_us"] = (mean_us({"structures.contains"},
                                          parent={"structures.insert"}), "us")
    m["structures.insert_self_us"] = (self_us({"structures.insert"}), "us")
    m["structures.zip_us"] = (mean_us({"structures.zip"}), "us")
    for label in STRUCTURE_LABELS:
        spent = t.total(SEARCH_SPANS, structure=label, kind={"search"})[1]
        m["structures.search_us." + label] = (
            ratio(spent / 1e3, t.requests[label, "search"]), "us")
        m["structures.search_comparisons." + label] = (
            counts.get("structures.search_comparisons." + label, 0.0), "count")
    m["structures.avl.insert_us"] = (mean_us({"structures.avl.insert"}), "us")
    m["structures.avl.delete_us"] = (mean_us({"structures.avl.delete"}), "us")
    m["structures.avl.search_us"] = (mean_us({"structures.avl.search"}), "us")
    m["structures.predecessor_us"] = (mean_us({"structures.predecessor"}), "us")
    m["structures.range_nodes_per_result"] = (counts["structures.range_nodes_per_result"],
                                              "count")
    m["structures.fingerprint_us"] = (mean_us({"structures.fingerprint"}), "us")
    m["thresholding.search_us"] = (mean_us({"thresholding.search"}), "us")
    m["thresholding.wrapper_us"] = (self_us({"thresholding.search"}), "us")
    m["pairing.search_us"] = (mean_us({"pairing.search"}), "us")
    m["pairing.fallback_rate"] = (counts.get("pairing.fallback_rate", 0.0), "ratio")
    m["pairing.wasted_comparisons"] = (counts.get("pairing.wasted_comparisons", 0.0), "count")
    m["pairing.insert_us"] = (mean_us({"pairing.insert"}), "us")
    m["pairing.nodes_per_key"] = (counts.get("pairing.nodes_per_key", 0.0), "count")
    rebuild_ns = t.total({"dynamics.rebuild"})[1]
    dynamic_ns = t.total({"dynamics.insert", "dynamics.delete", "dynamics.search"},
                         parent={None})[1]
    m["dynamics.rebuilds"] = (counts.get("dynamics.rebuilds", 0), "count")
    m["dynamics.key_moves"] = (counts.get("dynamics.key_moves", 0), "count")
    m["dynamics.rebuild_s"] = (rebuild_ns / 1e9, "s")
    m["dynamics.rebuild_share"] = (ratio(rebuild_ns, dynamic_ns), "ratio")
    m["dynamics.rebuild_us_per_key"] = (
        ratio(rebuild_ns / 1e3, t.events["dynamics.key_moves"]), "us")
    m["workloads.assigned_frequencies_s"] = (seconds({"workloads.assigned_frequencies"}), "s")
    m["workloads.sample_queries_s"] = (seconds({"workloads.sample_queries"}), "s")
    for name in hidict.bench.STRUCTURE_NAMES:
        m["bench.build_s." + name] = (
            seconds(INSERT_SPANS, parent=BENCH_PARENTS, structure=name), "s")
    m["bench.search_s"] = (seconds(SEARCH_SPANS | {"thresholding.search", "pairing.search"},
                                   parent={"bench.run_one"}), "s")
    m["hiverify.shi_trials_per_s"] = (
        ratio(t.events["hiverify.shi_trials"], seconds({"hiverify.shi_check"})), "1/s")
    m["hiverify.whi_samples_per_s"] = (
        ratio(t.events["hiverify.whi_samples"], seconds({"hiverify.whi_check"})), "1/s")
    cli_seconds = getattr(wl, "cli_seconds", {})
    for name, _ in PAPER_COMMANDS:
        m["cli.%s_s" % name] = (cli_seconds.get(name, 0.0), "s")
    m["trace.untraced_ops_per_s"] = (r["untraced_ops_per_s"], "1/s")
    m["trace.traced_ops_per_s"] = (r["ops_per_s"], "1/s")
    m["trace.overhead"] = (ratio(r["untraced_ops_per_s"], r["ops_per_s"]) - 1.0, "ratio")
    m["trace.hooks_absent"] = (len(r["absent"]), "count")
    return m


def _summary(wl, r, tally, trace):
    lines = ["perfbench %s: attempted=%d failed=%d error_rate=%.6f"
             % (wl.name, tally.attempted, tally.failed,
                tally.failed / max(tally.attempted, 1))]
    lines.append("raw set-ups " + " ".join("%.3fs" % t for t in r["setup_times"]))
    if not trace:
        lines.append("raw checks %s; raw ops_per_s %.1f"
                     % (" ".join("%.3fs" % t for t in r["check_times"]), r["raw_ops_per_s"]))
    lines.append("samples " + " ".join("%s=%d" % (k, len(v)) for k, v in r["lat"].items()))
    for error in tally.errors:
        lines.append("error: " + error)
    for key, value in sorted(getattr(wl, "report", {}).items()):
        lines.append("report %s: %s" % (key, value))
    if trace and r["absent"]:
        lines.append("absent hooks: " + ", ".join(r["absent"]))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("lookup-zipf", "churn-whi", "paper-check"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.dont_write_bytecode = True
    _load_library()
    from loads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    r, tally, tracer = measure(wl, args.seconds, args.trace)
    if args.trace:
        metrics = per_layer(r, wl, tracer)
        os.makedirs(TRACE_DIR, exist_ok=True)
        tracer.dump(os.path.join(TRACE_DIR, "%s-seed%d.trace.json" % (wl.name, args.seed)),
                    {"workload": wl.name, "seed": args.seed, "absent_hooks": r["absent"]})
    else:
        metrics = end_to_end(r)
    print(_summary(wl, r, tally, args.trace), file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
