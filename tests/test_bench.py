import csv
import io
import json
import math

import pytest

from cutkit import (
    AlgoConfig,
    InputError,
    SteinerInstance,
    VertexSet,
    det_call_budget,
    default_bench_config,
    report_to_csv,
    report_to_json,
    run_bench,
)
from cutkit.bench import BENCH_METHODS, CSV_COLUMNS, bench_graph, run_method
from cutkit.generators import clique_graph, cycle_graph, dumbbell_graph, gnp_graph, grid_graph


def test_default_bench_config():
    cfg = default_bench_config()
    assert cfg.k == 2
    assert str(cfg.phi) == "1/4"


def test_budget_formula_properties():
    cfg = default_bench_config()
    assert det_call_budget(10, AlgoConfig()) == 9
    per_vertex = [det_call_budget(n, cfg) / n for n in (64, 128, 256, 512)]
    assert all(a > b for a, b in zip(per_vertex, per_vertex[1:]))
    with pytest.raises(InputError):
        det_call_budget(1, cfg)


def test_bench_graph_families():
    assert bench_graph("dumbbell", 8).n == 8
    assert bench_graph("cycle", 12).m == 12
    assert bench_graph("clique", 6).m == 15
    assert bench_graph("grid", 16).n == 16
    # 128 is not a square: the most nearly square grid is 8 x 16.
    assert bench_graph("grid", 128).m == 8 * 15 + 7 * 16
    with pytest.raises(InputError):
        bench_graph("grid", 127)
    assert bench_graph("gnp", 20, seed=1).n == 20
    with pytest.raises(InputError):
        bench_graph("hypercube", 8)
    with pytest.raises(InputError):
        bench_graph("planted", 8)
    assert bench_graph("dumbbell", 8) == dumbbell_graph(8)
    assert bench_graph("cycle", 12) == cycle_graph(12)
    assert bench_graph("clique", 6) == clique_graph(6)
    assert bench_graph("grid", 16) == grid_graph(4, 4)
    assert bench_graph("grid", 128) == grid_graph(8, 16)
    assert bench_graph("gnp", 20, seed=1) == gnp_graph(20, p=(math.log(20) + 2) / 19, seed=1)


def test_run_bench_small():
    report = run_bench(
        families=("dumbbell", "cycle"),
        sizes=(8, 16),
        methods=("det", "naive", "stoer-wagner"),
        engine_name="dinic",
    )
    assert report.engine == "dinic"
    assert report.k == 2
    assert len(report.rows) == 2 * 2 * 3
    by_key = {(r.family, r.n, r.method): r for r in report.rows}
    for family in ("dumbbell", "cycle"):
        for n in (8, 16):
            det = by_key[(family, n, "det")]
            naive = by_key[(family, n, "naive")]
            sw = by_key[(family, n, "stoer-wagner")]
            assert det.weight == naive.weight == sw.weight
            assert naive.raw_calls == n - 1
            assert naive.engine_invocations == n - 1
            assert det.engine_invocations <= det.raw_calls - det.recalled_calls
            assert naive.equivalent_calls == n - 1
            assert sw.raw_calls == 0
            assert det.within_budget
            assert det.equivalent_calls <= det.budget
            assert det.seconds >= 0


def test_run_bench_rejects_unknown_method():
    with pytest.raises(InputError):
        run_bench(sizes=(8,), methods=("det", "prim"), engine_name="dinic")
    assert set(BENCH_METHODS) == {"det", "naive", "rand", "stoer-wagner"}
    g = dumbbell_graph(8)
    cfg = default_bench_config()
    with pytest.raises(InputError, match="unknown method 'x'"):
        run_method("x", None, SteinerInstance(g, g.full_set), cfg)
    with pytest.raises(InputError, match="only when every vertex is terminal"):
        run_method("stoer-wagner", None, SteinerInstance(g, VertexSet.from_ids(8, [0, 7])), cfg)


def test_report_serializers():
    report = run_bench(
        families=("dumbbell",), sizes=(8,), methods=("naive",), engine_name="dinic"
    )
    doc = report_to_json(report)
    assert doc["schema"] == 6
    assert doc["engine"] == "dinic"
    assert doc["phi"] == "1/4"
    assert len(doc["rows"]) == 1
    row = doc["rows"][0]
    assert set(row) == set(CSV_COLUMNS)
    assert row["budget"] is None
    json.dumps(doc)

    text = report_to_csv(report)
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == list(CSV_COLUMNS)
    assert len(parsed) == 2
    assert parsed[1][0] == "dumbbell"
    assert parsed[1][-2:] == ["", ""]


def test_rand_rows_have_no_budget():
    report = run_bench(
        families=("cycle",), sizes=(8,), methods=("rand", "naive"), engine_name="dinic"
    )
    rand_row = next(r for r in report.rows if r.method == "rand")
    naive_row = next(r for r in report.rows if r.method == "naive")
    assert rand_row.budget is None and rand_row.within_budget is None
    assert rand_row.weight == naive_row.weight
