"""Benchmark runners: comparison-count experiments, CSV tables, SVG plots.

Search cost is measured exactly but cheaply: queries are sampled once per
workload spec and trial, histogrammed and shared by every structure, and
each distinct queried key is searched a single time (searches are
deterministic and read-only, so this equals replaying the full query
sequence).  All randomness is derived from the master seed, so identical
inputs give byte-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Sequence

import numpy as np

from .core import derive_seed
from .pairing import PairedDict
from .structures import AVLTree, CTreap, LTreap, ZipZipTree
from .thresholding import ThresholdedDict
from .workloads import WorkloadSpec, assigned_frequencies, sample_queries

CSV_HEADER = "test,structure,n,alpha,delta,gamma,seed,queries,avg_comparisons,max_comparisons,nodes"

DEFAULT_N_LIST = (250, 500, 1000, 2000)


@dataclass
class BenchRow:
    test: str
    structure: str
    n: int
    alpha: float
    delta: float
    gamma: float
    seed: int
    queries: int
    avg_comparisons: float
    max_comparisons: int
    nodes: int


class _Kind(NamedTuple):
    build: Callable  # (seed, n, gamma) -> an empty structure
    learned: bool  # keys carry their predicted frequencies, not weight 1
    # filled by load_sorted, not by inserts: a precedence tree whose shape
    # is a function of (key, weight) alone, so the two builds are equal
    bulk: bool


_STRUCTURES = {
    "avl": _Kind(lambda seed, n, gamma: AVLTree(seed), learned=False, bulk=False),
    "zipzip": _Kind(lambda seed, n, gamma: ZipZipTree(seed), learned=False, bulk=True),
    "biased-zipzip": _Kind(lambda seed, n, gamma: ZipZipTree(seed), learned=True, bulk=True),
    "threshold-zipzip": _Kind(lambda seed, n, gamma: ThresholdedDict(seed, capacity=n),
                              learned=True, bulk=False),
    "paired-zipzip": _Kind(lambda seed, n, gamma: PairedDict(seed, gamma=gamma, capacity=n),
                           learned=True, bulk=False),
    "l-treap": _Kind(lambda seed, n, gamma: LTreap(seed), learned=True, bulk=True),
    "c-treap": _Kind(lambda seed, n, gamma: CTreap(seed), learned=True, bulk=True),
}

STRUCTURE_NAMES = tuple(_STRUCTURES)


def make_structure(name: str, seed: int, n: int, gamma: float = 1.0):
    if name not in _STRUCTURES:
        raise ValueError("unknown structure %r" % (name,))
    return _STRUCTURES[name].build(seed, n, gamma)


def _fill(name: str, s, assigned):
    """Fill keys 1..n with their assigned frequencies, or weight 1."""
    kind = _STRUCTURES[name]
    entries = ((key, float(assigned[key - 1]) if kind.learned else 1.0, None)
               for key in range(1, len(assigned) + 1))
    if kind.bulk:
        s.load_sorted(entries)
    else:
        for key, weight, _ in entries:
            s.insert(key, weight)


def _run_one(test: str, structure_name: str, spec: WorkloadSpec, trial: int,
             master_seed: int, gamma: float, assigned, counts) -> BenchRow:
    """Build one structure from the spec's frequencies ``assigned`` and
    search it for the trial's query histogram ``counts`` (key -> number
    of queries); ``_sweep`` computes both once for every structure."""
    struct_seed = derive_seed(master_seed, structure_name, spec.n, spec.alpha,
                              spec.delta, trial)
    s = make_structure(structure_name, struct_seed, spec.n, gamma)
    _fill(structure_name, s, assigned)
    total = 0.0
    max_c = 0
    for key in np.nonzero(counts)[0]:
        res = s.search(int(key))
        total += int(counts[key]) * res.comparisons
        if res.comparisons > max_c:
            max_c = res.comparisons
    return BenchRow(
        test=test,
        structure=structure_name,
        n=spec.n,
        alpha=spec.alpha,
        delta=spec.delta,
        gamma=gamma,
        seed=struct_seed,
        queries=spec.queries,
        avg_comparisons=total / spec.queries if spec.queries else 0.0,
        max_comparisons=max_c,
        nodes=s.node_count(),
    )


def _sweep(test: str, structures: Sequence[str], specs: Sequence[WorkloadSpec],
           trials: int, master_seed: int, gamma: float) -> List[BenchRow]:
    rows = []
    for spec in specs:
        # the frequencies and the queries do not depend on the structure
        assigned = assigned_frequencies(spec)
        base = spec.base_frequencies()
        for trial in range(trials):
            qs = ()
            if spec.queries:
                query_seed = derive_seed(master_seed, "queries", test, spec.n, spec.alpha,
                                         spec.delta, trial)
                qs = sample_queries(base, spec.queries, query_seed & 0x7FFFFFFF)
            counts = np.bincount(qs, minlength=spec.n + 1)
            for name in structures:
                rows.append(_run_one(test, name, spec, trial, master_seed, gamma,
                                     assigned, counts))
    rows.sort(key=lambda r: (r.test, r.structure, r.n, r.alpha, r.delta, r.seed))
    return rows


def run_zipf_param(structures: Sequence[str], alphas: Sequence[float] = (1.0, 2.0, 3.0),
                   n: int = 2000, queries: int = 100_000, trials: int = 10,
                   master_seed: int = 0, gamma: float = 1.0) -> List[BenchRow]:
    """Vary alpha under perfect estimates (delta = 0) at fixed n."""
    specs = [WorkloadSpec("zipfian", n, a, 0.0, queries) for a in alphas]
    return _sweep("zipf-param", structures, specs, trials, master_seed, gamma)


def run_noisy_zipf(structures: Sequence[str], n_values: Sequence[int] = DEFAULT_N_LIST,
                   alpha: float = 2.0, delta: float = 0.9, queries: int = 100_000,
                   trials: int = 10, master_seed: int = 0,
                   gamma: float = 1.0) -> List[BenchRow]:
    specs = [WorkloadSpec("zipfian", n, alpha, delta, queries) for n in n_values]
    return _sweep("noisy-zipf", structures, specs, trials, master_seed, gamma)


def run_inverse_power(structures: Sequence[str], n_values: Sequence[int] = DEFAULT_N_LIST,
                      alpha: float = 1.01, delta: float = 0.9, queries: int = 100_000,
                      trials: int = 10, master_seed: int = 0,
                      gamma: float = 1.0) -> List[BenchRow]:
    specs = [WorkloadSpec("inverse_power", n, alpha, delta, queries) for n in n_values]
    return _sweep("inverse-power", structures, specs, trials, master_seed, gamma)


def run_size(structures: Sequence[str], n_values: Sequence[int] = DEFAULT_N_LIST,
             master_seed: int = 0, gamma: float = 1.0) -> List[BenchRow]:
    """Node-count measurement under Zipf(2) weights; no queries."""
    specs = [WorkloadSpec("zipfian", n, 2.0, 0.0, 0) for n in n_values]
    return _sweep("size", structures, specs, 1, master_seed, gamma)


def mean_avg_comparisons(rows: Sequence[BenchRow], structure: str, n: int = None,
                         alpha: float = None) -> float:
    """Average of avg_comparisons over trials for one configuration."""
    vals = [r.avg_comparisons for r in rows
            if r.structure == structure
            and (n is None or r.n == n)
            and (alpha is None or r.alpha == alpha)]
    if not vals:
        raise ValueError("no rows for %r n=%r alpha=%r" % (structure, n, alpha))
    return sum(vals) / len(vals)


def emit_csv(rows: Sequence[BenchRow], path: str):
    if not rows:
        raise ValueError("no rows to emit")
    _write(path, "CSV", [CSV_HEADER] + [
        "%s,%s,%d,%.4f,%.4f,%.4f,%d,%d,%.4f,%d,%d"
        % (r.test, r.structure, r.n, r.alpha, r.delta, r.gamma, r.seed,
           r.queries, r.avg_comparisons, r.max_comparisons, r.nodes)
        for r in rows])


def _write(path: str, what: str, lines: Sequence[str]):
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError("cannot write %s to %s: %s" % (what, path, exc)) from exc


def _series(rows: Sequence[BenchRow]):
    """Group rows into per-structure (x, mean y) series.

    x is alpha for zipf-param, which varies alpha at one n, and n for
    every other test; y is avg_comparisons for query tests and nodes for
    the size test.
    """
    use_alpha = rows[0].test == "zipf-param"
    sizes = all(r.test == "size" for r in rows)
    series = {}
    for r in rows:
        x = r.alpha if use_alpha else r.n
        y = r.nodes if sizes else r.avg_comparisons
        series.setdefault(r.structure, {}).setdefault(x, []).append(y)
    out = {}
    for name, pts in series.items():
        out[name] = [(x, sum(v) / len(v)) for x, v in sorted(pts.items())]
    xlabel = "alpha" if use_alpha else "n"
    ylabel = "nodes" if sizes else "avg comparisons"
    return out, xlabel, ylabel


_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
            "#9467bd", "#8c564b", "#e377c2")


def emit_svg(rows: Sequence[BenchRow], path: str):
    """Static chart of the aggregated rows: grouped bars for zipf-param,
    lines for every other test."""
    if not rows:
        raise ValueError("no rows to emit")
    series, xlabel, ylabel = _series(rows)
    names = sorted(series)
    xs = sorted({x for pts in series.values() for x, _ in pts})
    ymax = max(y for pts in series.values() for _, y in pts) or 1.0
    width, height = 720, 420
    ml, mr, mt, mb = 60, 160, 20, 50
    plot_w, plot_h = width - ml - mr, height - mt - mb

    def px(i):
        return ml + plot_w * (i + 0.5) / len(xs)

    def py(y):
        return mt + plot_h * (1.0 - y / (ymax * 1.05))

    svg = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">'
           % (width, height)]
    svg.append('<rect width="%d" height="%d" fill="white"/>' % (width, height))
    svg.append('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>'
               % (ml, mt + plot_h, ml + plot_w, mt + plot_h))
    svg.append('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>'
               % (ml, mt, ml, mt + plot_h))
    for i, x in enumerate(xs):
        svg.append('<text x="%.1f" y="%d" font-size="11" text-anchor="middle">%g</text>'
                   % (px(i), mt + plot_h + 16, x))
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = ymax * frac
        svg.append('<text x="%d" y="%.1f" font-size="11" text-anchor="end">%.1f</text>'
                   % (ml - 6, py(y) + 4, y))
    svg.append('<text x="%d" y="%d" font-size="12" text-anchor="middle">%s</text>'
               % (ml + plot_w // 2, height - 12, xlabel))
    svg.append('<text x="14" y="%d" font-size="12" transform="rotate(-90 14 %d)" '
               'text-anchor="middle">%s</text>' % (mt + plot_h // 2, mt + plot_h // 2, ylabel))
    for si, name in enumerate(names):
        color = _PALETTE[si % len(_PALETTE)]
        pts = dict(series[name])
        if rows[0].test != "zipf-param":
            coords = " ".join("%.1f,%.1f" % (px(i), py(pts[x]))
                              for i, x in enumerate(xs) if x in pts)
            svg.append('<polyline points="%s" fill="none" stroke="%s" stroke-width="2"/>'
                       % (coords, color))
            for i, x in enumerate(xs):
                if x in pts:
                    svg.append('<circle cx="%.1f" cy="%.1f" r="3" fill="%s"/>'
                               % (px(i), py(pts[x]), color))
        else:
            group_w = plot_w / len(xs) * 0.8
            bar_w = group_w / len(names)
            for i, x in enumerate(xs):
                if x not in pts:
                    continue
                bx = px(i) - group_w / 2 + si * bar_w
                by = py(pts[x])
                svg.append('<rect class="bar" x="%.1f" y="%.1f" width="%.1f" '
                           'height="%.1f" fill="%s"/>'
                           % (bx, by, bar_w * 0.9, mt + plot_h - by, color))
        svg.append('<rect x="%d" y="%d" width="10" height="10" fill="%s"/>'
                   % (width - mr + 10, mt + 16 * si, color))
        svg.append('<text x="%d" y="%d" font-size="11">%s</text>'
                   % (width - mr + 24, mt + 16 * si + 9, name))
    svg.append("</svg>")
    _write(path, "SVG", svg)
