"""The three perfbench workloads: inputs, set-up, operation streams, checks.

Each workload derives every input from one integer seed; the library
receives only the generated keys, frequencies and payloads.  An operation
is a tuple ``(kind, args, expect)`` where ``expect`` is the reply a plain
sorted-list model gives: a search expects the payload (None when the key is
absent), a predecessor the largest smaller key, a range the sorted keys in
``[lo, hi]``, and inserts and deletes return None.

Frequencies and query ranks come from ``hidict.workloads``, called through
the module attribute so the traced run can hook them.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import itertools
import random
import re

import hidict
import hidict.cli
import hidict.workloads as hw

KEY_SPACE = 1 << 40
BLOCK = 512


def _payload(rng):
    return rng.getrandbits(64).to_bytes(8, "little")


def build(structs, items, bind):
    """Insert (key, frequency, payload) items, in order, into every structure."""
    for label, s in structs.items():
        insert = bind(label, s)["insert"]
        for key, f, payload in items:
            insert(key, f, payload)


def _predecessor_op(sorted_keys, x):
    """A predecessor query at x, with its model answer."""
    i = bisect.bisect_left(sorted_keys, x)
    return ("predecessor", (x,), sorted_keys[i - 1] if i else None)


def _range_op(sorted_keys, lo, width):
    hi = lo + width
    i = bisect.bisect_left(sorted_keys, lo)
    j = bisect.bisect_right(sorted_keys, hi)
    return ("range", (lo, hi), sorted_keys[i:j])


class Cycle:
    """Blocks of a fixed operation list, repeated for as long as asked."""

    def __init__(self, ops, size=BLOCK):
        self._starts = itertools.cycle(range(0, len(ops), size))
        self._ops = ops
        self._size = size

    def next_block(self):
        start = next(self._starts)
        return self._ops[start:start + self._size]


class Workload:
    name = ""
    count_ops = 20_000   # ops in each exact-count pass, rounded up to blocks
    setup_reps = 3        # set-ups per run; setup_s is their median
    check_reps = 3        # final checks per run; check_s is their median
    memory_keys = 10_000  # keys per structure in the tracemalloc pass

    def setup(self):
        """Build the structures from the generated inputs; timed as set-up."""
        raise NotImplementedError

    def stream(self):
        """A fresh, deterministic source of operation blocks."""
        raise NotImplementedError

    def detours(self):
        """Delete-then-reinsert pairs run a few at a time between window
        blocks, outside ops_per_s (none by default)."""
        return []

    def before_window(self, structs):
        pass

    def verify(self, structs, stream):
        """Checks of the final state: (number of checks, list of failures)."""
        raise NotImplementedError

    def check(self, structs, stream, clock):
        """``verify``, timed as one step of ``clock``."""
        return clock(lambda: self.verify(structs, stream))

    def memory_build(self):
        """The workload's structures over ``memory_keys`` keys each."""
        raise NotImplementedError

    def bind(self, label, s):
        return {"search": s.search, "predecessor": s.predecessor,
                "range": s.range_query, "insert": s.insert, "delete": s.delete}


class LookupZipf(Workload):
    """Read path at n = 100,000 keys with perfect Zipf(1) predictions."""

    name = "lookup-zipf"
    n = 100_000
    queries = 200_000
    detour_pairs = 2_000
    memory_keys = 5_000
    hi_structures = ("threshold-zipzip", "paired-zipzip")

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.struct_seed = rng.getrandbits(64)
        self.query_seed = rng.getrandbits(31)
        self.detour_seed = rng.getrandbits(64)
        self.by_rank = rng.sample(range(KEY_SPACE), self.n)  # key of Zipf rank r+1
        self.payloads = [_payload(rng) for _ in range(self.n)]
        self.order = list(range(self.n))
        rng.shuffle(self.order)
        self.sorted_keys = sorted(self.by_rank)
        self.rng = rng
        self.pred = None
        self.ops = None
        self._fingerprints = {}

    def _make(self):
        n, seed = self.n, self.struct_seed
        return {"threshold-zipzip": hidict.ThresholdedDict(seed, capacity=n),
                "paired-zipzip": hidict.PairedDict(seed, capacity=n),
                "avl": hidict.AVLTree(seed)}

    def setup(self):
        spec = hw.WorkloadSpec("zipfian", self.n, 1.0, 0.0, self.queries)
        pred = hw.assigned_frequencies(spec).tolist()
        ranks = hw.sample_queries(spec.base_frequencies(), self.queries, self.query_seed)
        structs = self._make()
        build(structs, [(self.by_rank[r], pred[r], self.payloads[r]) for r in self.order],
               self.bind)
        if self.ops is None:
            self.pred = pred
            self.ops = self._query_ops(ranks.tolist())
        return structs

    def _query_ops(self, ranks):
        rng, keys, sk = self.rng, self.by_rank, self.sorted_keys
        width = 8 * KEY_SPACE // self.n  # about eight keys per range
        ops = []
        for r in ranks:
            u = rng.random()
            key = keys[r - 1]
            if u < 0.94:
                ops.append(("search", (key,), self.payloads[r - 1]))
            elif u < 0.97:
                ops.append(_predecessor_op(sk, rng.randrange(KEY_SPACE)))
            else:
                ops.append(_range_op(sk, key, width))
        return ops

    def stream(self):
        return Cycle(self.ops)

    def detours(self):
        # the write latencies of this workload, at full size; the query
        # stream itself writes nothing
        ops = []
        for r in random.Random(self.detour_seed).sample(range(self.n), self.detour_pairs):
            key = self.by_rank[r]
            ops.append(("delete", (key,), None))
            ops.append(("insert", (key, self.pred[r], self.payloads[r]), None))
        return ops

    def before_window(self, structs):
        self._fingerprints = {label: structs[label].fingerprint()
                              for label in self.hi_structures}

    def verify(self, structs, stream):
        failures = []
        for label in self.hi_structures:
            if structs[label].fingerprint() != self._fingerprints[label]:
                failures.append("%s: fingerprint changed by detours" % label)
        if structs["avl"].keys() != self.sorted_keys:
            failures.append("avl: keys differ from the model")
        for label, s in structs.items():
            if len(s) != self.n:
                failures.append("%s: len %d != %d" % (label, len(s), self.n))
        return len(self.hi_structures) + 1 + len(structs), failures

    def memory_build(self):
        structs = self._make()
        items = [(self.by_rank[r], self.pred[r], self.payloads[r])
                 for r in self.order[:self.memory_keys]]
        return structs, items


class _ChurnStream:
    """Insert/delete/search churn over a live set, with the model beside it."""

    def __init__(self, wl):
        self.wl = wl
        self.rng = random.Random(wl.stream_seed)
        self.live = list(wl.initial)
        self.pos = {r: i for i, r in enumerate(self.live)}
        self.sorted_live = sorted(wl.keys[r] for r in self.live)

    def next_block(self):
        wl, rng, live, pos, sk = self.wl, self.rng, self.live, self.pos, self.sorted_live
        keys = wl.keys
        block = []
        for _ in range(BLOCK):
            u = rng.random()
            if u < 0.45:
                r = rng.randrange(wl.universe)
                while r in pos:
                    r = rng.randrange(wl.universe)
                pos[r] = len(live)
                live.append(r)
                bisect.insort(sk, keys[r])
                block.append(("insert", (keys[r], wl.pred[r], wl.payloads[r]), None))
            elif u < 0.90:
                i = rng.randrange(len(live))
                r = live[i]
                last = live.pop()
                if last != r:
                    live[i] = last
                    pos[last] = i
                del pos[r]
                del sk[bisect.bisect_left(sk, keys[r])]
                block.append(("delete", (keys[r],), None))
            elif u < 0.98:
                # searches average over the live set rather than a few hot
                # keys, whose liveness would make the counts swing by seed
                if rng.random() < 0.75:
                    r = live[rng.randrange(len(live))]
                else:
                    r = rng.randrange(wl.universe)
                block.append(("search", (keys[r],), wl.payloads[r] if r in pos else None))
            elif u < 0.99:
                block.append(_predecessor_op(sk, rng.randrange(KEY_SPACE)))
            else:
                block.append(_range_op(sk, sk[rng.randrange(len(sk))], wl.range_width))
        return block

    def contents(self):
        wl = self.wl
        return sorted((wl.keys[r], wl.pred[r], wl.payloads[r]) for r in self.live)


class ChurnWhi(Workload):
    """Write path: ~5,000 live keys churned over a universe of 20,000."""

    name = "churn-whi"
    # Rebuilds of the WHI scheme come at random, about 1.5/n per update, so
    # their count in one window varies by seed like a Poisson count; at
    # 10,000 live keys it swung ops_per_s by 20% between seeds, at 5,000
    # the window sees twice as many rebuilds, each half as long.
    live_keys = 5_000
    universe = 20_000
    memory_keys = 5_000
    setup_reps = 5

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.struct_seed = rng.getrandbits(64)
        self.scheme_seed = rng.getrandbits(64)
        self.stream_seed = rng.getrandbits(64)
        self.keys = rng.sample(range(KEY_SPACE), self.universe)  # key of Zipf rank r+1
        self.payloads = [_payload(rng) for _ in range(self.universe)]
        self.initial = rng.sample(range(self.universe), self.live_keys)
        self.range_width = 8 * KEY_SPACE // self.live_keys
        self.pred = None

    def _make(self):
        seed = self.struct_seed
        return {"dynamic-threshold": hidict.DynamicThresholdDict(
                    seed, scheme="whi", scheme_seed=self.scheme_seed),
                "paired-zipzip": hidict.PairedDict(seed),
                "avl": hidict.AVLTree(seed)}

    def setup(self):
        pred = hw.assigned_frequencies(hw.WorkloadSpec("zipfian", self.universe, 1.0, 0.0))
        pred = pred.tolist()
        structs = self._make()
        build(structs, [(self.keys[r], pred[r], self.payloads[r]) for r in self.initial],
               self.bind)
        self.pred = pred
        return structs

    def stream(self):
        return _ChurnStream(self)

    def verify(self, structs, stream):
        # unique representation on the real structures: the churned state
        # must equal a fresh build of the final contents in sorted order
        contents = stream.contents()
        failures = []
        dyn = structs["dynamic-threshold"]
        fresh = hidict.DynamicThresholdDict(self.struct_seed, scheme="whi", scheme_seed=0)
        for item in contents:
            fresh.insert(*item)
        fresh.rebuild(dyn.N)
        if dyn.fingerprint() != fresh.fingerprint():
            failures.append("dynamic-threshold: fingerprint differs from a fresh build")
        paired = structs["paired-zipzip"]
        fresh = hidict.PairedDict(self.struct_seed)
        for item in contents:
            fresh.insert(*item)
        if paired.fingerprint() != fresh.fingerprint():
            failures.append("paired-zipzip: fingerprint differs from a fresh build")
        # AVL is the history-dependent control: compare contents only
        if structs["avl"].keys() != stream.sorted_live:
            failures.append("avl: keys differ from the model")
        return 3, failures

    def memory_build(self):
        items = [(self.keys[r], self.pred[r], self.payloads[r])
                 for r in self.initial[:self.memory_keys]]
        return self._make(), items


PAPER_COMMANDS = (
    ("bench-zipf-param", ["bench", "zipf-param", "--alpha-list", "1,2,3", "--n", "2000",
                          "--trials", "1"]),
    ("bench-inverse-power", ["bench", "inverse-power", "--n-list", "250,2000",
                             "--trials", "1"]),
    ("bench-size", ["bench", "size"]),
    ("verify-shi", ["verify", "shi", "--universe", "128", "--trials", "200"]),
    ("verify-whi", ["verify", "whi", "--n-list", "5,16,33", "--samples", "10000"]),
    ("demo-counterexample", ["demo", "counterexample"]),
)

_ROW = re.compile(r"^(\S+) (\S+) n=(\d+) alpha=\S+ delta=\S+ avg=(\S+) max=(\d+) nodes=(\d+)$")
_SHI = re.compile(r"^shi (\S+)\s+trials=(\d+) mismatches=(\d+)")
_NEG = re.compile(r"^shi negative-control mismatches=(\d+)")
_WHI = re.compile(r"^whi n=(\d+) samples=\d+ tv=(\S+)")


def run_cli(argv):
    """hidict.cli.main in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = hidict.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _rows(text):
    return [m.groups() for m in map(_ROW.match, text.splitlines()) if m]


class PaperCheck(Workload):
    """The README's commands, plus a detour/query replay on all 7 structures."""

    name = "paper-check"
    n = 2000
    queries = 100_000
    memory_keys = 1000
    setup_reps = 5
    check_reps = 1  # the README commands take about ten seconds

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.seed = seed
        self.struct_seed = rng.getrandbits(64)
        self.query_seed = rng.getrandbits(31)
        self.payloads = [None] + [_payload(rng) for _ in range(self.n)]
        self.rng = rng
        self.pred = None
        self.ops = None
        self.cli_seconds = {}
        self.report = {}
        self._fingerprints = {}

    def _make(self):
        n, seed = self.n, self.struct_seed
        return {"avl": hidict.AVLTree(seed), "zipzip": hidict.ZipZipTree(seed),
                "biased-zipzip": hidict.ZipZipTree(seed),
                "threshold-zipzip": hidict.ThresholdedDict(seed, capacity=n),
                "paired-zipzip": hidict.PairedDict(seed, capacity=n),
                "l-treap": hidict.LTreap(seed), "c-treap": hidict.CTreap(seed)}

    def bind(self, label, s):
        fns = super().bind(label, s)
        if label == "zipzip":  # the uniform tree ignores predictions
            fns["insert"] = lambda key, f, payload: s.insert(key, 1.0, payload)
        return fns

    def setup(self):
        # keys 1..n inserted in key order, as the paper's bench does
        spec = hw.WorkloadSpec("zipfian", self.n, 1.0, 0.0, self.queries)
        pred = hw.assigned_frequencies(spec).tolist()
        ranks = hw.sample_queries(spec.base_frequencies(), self.queries, self.query_seed)
        structs = self._make()
        build(structs, [(k, pred[k - 1], self.payloads[k]) for k in range(1, self.n + 1)],
               self.bind)
        if self.ops is None:
            self.pred = pred
            self.ops = self._ops(ranks.tolist())
        return structs

    def _ops(self, ranks):
        rng, n = self.rng, self.n
        sk = list(range(1, n + 1))
        ops = []
        for key in ranks:
            u = rng.random()
            if u < 0.76:
                ops.append(("search", (key,), self.payloads[key]))
            elif u < 0.78:
                ops.append(_predecessor_op(sk, rng.randrange(1, n + 2)))
            elif u < 0.80:
                ops.append(_range_op(sk, rng.randrange(1, n + 1), 8))
            else:
                # delete-then-reinsert detour of a uniformly chosen key; a
                # pair never straddles a block, so every window ends whole
                if len(ops) % BLOCK == BLOCK - 1:
                    ops.append(("search", (key,), self.payloads[key]))
                k = rng.randrange(1, n + 1)
                ops.append(("delete", (k,), None))
                ops.append(("insert", (k, self.pred[k - 1], self.payloads[k]), None))
        return ops

    def stream(self):
        return Cycle(self.ops)

    def before_window(self, structs):
        self._fingerprints = {label: s.fingerprint() for label, s in structs.items()
                              if label != "avl"}

    def verify(self, structs, stream):
        failures = []
        for label, fp in self._fingerprints.items():
            if structs[label].fingerprint() != fp:
                failures.append("%s: fingerprint changed by detours" % label)
        if structs["avl"].keys() != list(range(1, self.n + 1)):
            failures.append("avl: keys differ from the model")
        return len(self._fingerprints) + 1, failures

    def check(self, structs, stream, clock):
        # one step per command, so host drift is tracked within the checks
        checks, failures = clock(lambda: self.verify(structs, stream))
        for name, argv in PAPER_COMMANDS:
            checks += 1
            code, out, err = clock(lambda: run_cli(argv + ["--seed", str(self.seed)]))
            self.cli_seconds[name] = clock.last
            problem = _check_command(name, code, out, err, self.report)
            if problem:
                failures.append("%s: %s" % (name, problem))
        return checks, failures

    def memory_build(self):
        items = [(k, self.pred[k - 1], self.payloads[k])
                 for k in range(1, self.memory_keys + 1)]
        return self._make(), items


def _check_command(name, code, out, err, report):
    """Failure text for one paper command's output, or None."""
    if code != 0 and name != "verify-whi":
        return "exit code %r: %s" % (code, err.strip()[-200:])
    structures = set(hidict.bench.STRUCTURE_NAMES)
    if name == "bench-zipf-param":
        rows = _rows(out)
        if len(rows) != 3 * len(structures) or {r[1] for r in rows} != structures:
            return "expected 21 rows, got %d" % len(rows)
    elif name == "bench-inverse-power":
        rows = _rows(out)
        if len(rows) != 2 * len(structures):
            return "expected 14 rows, got %d" % len(rows)
        avg = {(r[1], int(r[2])): float(r[3]) for r in rows}
        # the robustness ratio is a test, not a check: reported only
        report["inverse_power_ratio"] = {
            s: round(avg[s, 2000] / avg[s, 250], 3) for s in sorted(structures)}
    elif name == "bench-size":
        rows = _rows(out)
        bad = [r for r in rows
               if int(r[5]) != int(r[2]) * (2 if r[1] == "paired-zipzip" else 1)]
        if len(rows) != 4 * len(structures) or bad:
            return "node counts wrong in %d of %d rows" % (len(bad), len(rows))
    elif name == "verify-shi":
        shi = [m.groups() for m in map(_SHI.match, out.splitlines()) if m]
        neg = [int(m.group(1)) for m in map(_NEG.match, out.splitlines()) if m]
        if len(shi) != 3 or any(int(m) for _, _, m in shi):
            return "strong-HI mismatches: %r" % (shi,)
        if neg != [1]:
            return "negative control did not mismatch: %r" % (neg,)
    elif name == "verify-whi":
        tvs = [float(m.group(2)) for m in map(_WHI.match, out.splitlines()) if m]
        if len(tvs) != 3 or "RESULT verify-whi" not in out:
            return "exit code %r, no result: %s" % (code, err.strip()[-200:])
        # TV distance at 10,000 samples is a statistical test: reported only
        report["whi_tv"] = tvs
    elif name == "demo-counterexample":
        if "contents equal: True" not in out or "fingerprints equal: False" not in out:
            return "counterexample not shown"
    return None


WORKLOADS = {w.name: w for w in (LookupZipf, ChurnWhi, PaperCheck)}
