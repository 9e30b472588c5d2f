import pytest

from hidict import bench
from hidict.bench import (
    CSV_HEADER,
    STRUCTURE_NAMES,
    emit_csv,
    emit_svg,
    make_structure,
    mean_avg_comparisons,
    run_noisy_zipf,
    run_size,
    run_zipf_param,
)


def small_rows(**kw):
    kw.setdefault("structures", ["avl", "threshold-zipzip"])
    kw.setdefault("alphas", [1.0, 2.0])
    kw.setdefault("n", 64)
    kw.setdefault("queries", 2000)
    kw.setdefault("trials", 2)
    return run_zipf_param(**kw)


def test_csv_header_exact():
    assert CSV_HEADER == ("test,structure,n,alpha,delta,gamma,seed,queries,"
                          "avg_comparisons,max_comparisons,nodes")


def test_csv_output(tmp_path):
    rows = small_rows()
    path = tmp_path / "out.csv"
    emit_csv(rows, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(rows) == 1 + 2 * 2 * 2
    first = lines[1].split(",")
    assert first[0] == "zipf-param" and first[2] == "64"
    assert first[7] == "2000"


def test_run_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(small_rows(), str(a))
    emit_csv(small_rows(), str(b))
    assert a.read_bytes() == b.read_bytes()


def test_emit_rejects_empty_and_unwritable(tmp_path):
    with pytest.raises(ValueError):
        emit_csv([], str(tmp_path / "x.csv"))
    with pytest.raises(ValueError):
        emit_svg([], str(tmp_path / "x.svg"))
    assert list(tmp_path.iterdir()) == []
    rows = small_rows(trials=1)
    with pytest.raises(OSError, match="cannot write CSV to "):
        emit_csv(rows, str(tmp_path / "missing" / "x.csv"))
    with pytest.raises(OSError, match="cannot write SVG to "):
        emit_svg(rows, str(tmp_path / "missing" / "x.svg"))


def test_svg_bar_chart(tmp_path):
    # zipf-param rows are drawn as bars
    rows = small_rows()
    path = tmp_path / "out.svg"
    emit_svg(rows, str(path))
    text = path.read_text()
    assert text.startswith("<svg")
    # 2 structures x 2 alpha groups, plus legend entries
    assert text.count('class="bar"') == 4
    assert text.count("polyline") == 0
    for name in ("avl", "threshold-zipzip"):
        assert name in text


def test_one_alpha_chart_shows_its_alpha(tmp_path):
    # zipf-param varies alpha at one n, so alpha is the x axis even for
    # a single alpha
    rows = run_zipf_param(["avl", "zipzip"], alphas=[2.0], n=500, queries=100, trials=1)
    path = tmp_path / "z.svg"
    emit_svg(rows, str(path))
    text = path.read_text()
    assert 'text-anchor="middle">alpha</text>' in text
    assert 'text-anchor="middle">n</text>' not in text
    assert 'text-anchor="middle">2</text>' in text
    assert 'text-anchor="middle">500</text>' not in text


def test_svg_line_chart(tmp_path):
    # every test but zipf-param is drawn as lines
    rows = run_noisy_zipf(["avl", "zipzip", "biased-zipzip"],
                          n_values=[32, 64], queries=1000, trials=1)
    path = tmp_path / "out.svg"
    emit_svg(rows, str(path))
    text = path.read_text()
    assert text.count("<polyline") == 3
    assert text.count("<circle") == 6  # 3 series x 2 sizes


def test_size_rows_exact_node_counts():
    rows = run_size(["avl", "paired-zipzip"], n_values=[250, 500])
    counts = {(r.structure, r.n): r.nodes for r in rows}
    assert counts[("avl", 250)] == 250
    assert counts[("avl", 500)] == 500
    assert counts[("paired-zipzip", 250)] == 500  # tandem: 2n
    assert counts[("paired-zipzip", 500)] == 1000


def test_size_samples_no_queries(monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("a spec with no queries sampled")

    monkeypatch.setattr(bench, "sample_queries", refuse)
    rows = run_size(["avl", "zipzip"], n_values=[16, 32])
    assert [(r.queries, r.avg_comparisons, r.max_comparisons) for r in rows] == [(0, 0.0, 0)] * 4
    path = tmp_path / "size.svg"
    emit_svg(rows, str(path))
    assert path.read_text().count("<polyline") == 2


def test_zero_queries_average_zero():
    rows = run_zipf_param(["avl", "c-treap"], alphas=[2.0], n=16, queries=0, trials=2)
    assert len(rows) == 4
    assert all(r.avg_comparisons == 0.0 and r.max_comparisons == 0 for r in rows)


def test_all_structures_run():
    rows = run_zipf_param(list(STRUCTURE_NAMES), alphas=[2.0], n=32,
                          queries=500, trials=1)
    assert {r.structure for r in rows} == set(STRUCTURE_NAMES)
    for r in rows:
        assert 1.0 <= r.avg_comparisons <= r.max_comparisons
        assert r.nodes in (32, 64)


def test_unknown_structure_rejected():
    with pytest.raises(ValueError):
        make_structure("splay", 0, 10)
    with pytest.raises(ValueError):
        run_zipf_param(["splay"], alphas=[2.0], n=8, queries=10, trials=1)


def test_mean_avg_comparisons_filters():
    rows = small_rows()
    m1 = mean_avg_comparisons(rows, "avl", alpha=1.0)
    m2 = mean_avg_comparisons(rows, "avl", alpha=2.0)
    assert m1 != m2
    with pytest.raises(ValueError):
        mean_avg_comparisons(rows, "avl", n=999)


def test_queries_share_seed_across_structures():
    # same test/config: every structure answers the identical query stream,
    # so the seed column differs but the query column does not
    rows = small_rows(trials=1)
    assert len({r.queries for r in rows}) == 1
    assert len({r.seed for r in rows}) == len(rows)
