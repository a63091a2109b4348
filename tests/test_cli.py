import json
import os
import shlex
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import pytest

import cutkit
from cutkit import Cut, VertexSet, default_bench_config, run_bench, write_edgelist
from cutkit.cli import build_parser, main
from cutkit.generators import GeneratorSpec, cycle_graph, dumbbell_graph


@pytest.fixture()
def dumbbell_path(tmp_path):
    path = tmp_path / "dumbbell.graph"
    path.write_text(write_edgelist(dumbbell_graph(8)))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_readme_quickstart_commands_run(tmp_path, monkeypatch, capsys):
    # Every command of README's command-line quickstart, in order, in one
    # directory: a flag or subcommand the docs keep after it is gone fails here.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    start = lines.index("```sh", lines.index("## Quickstart (command line)")) + 1
    commands = lines[start : lines.index("```", start)]
    assert commands and all(c.startswith("cutkit ") for c in commands)
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert main(shlex.split(command)[1:]) == 0, command
        capsys.readouterr()


def test_gen_writes_edgelist(tmp_path, capsys):
    out = tmp_path / "g.txt"
    code = main(["gen", "--family", "cycle", "--n", "5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p 5 5"
    assert len(lines) == 6


def test_python_dash_m_runs_the_cli():
    src = str(Path(cutkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-m", "cutkit", "gen", "--family", "cycle", "--n", "6"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0] == "p 6 6"


def test_gen_stdout_dimacs(capsys):
    code = main(["gen", "--family", "cycle", "--n", "4", "--format", "dimacs"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "p max 4 4"
    assert "n 1 s" in out and "n 4 t" in out


def test_gen_dimacs_of_one_vertex_is_input_error(capsys):
    # A one-vertex graph has no distinct source and sink to name.
    code = main(["gen", "--family", "gnp", "--n", "1", "--format", "dimacs"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "two distinct vertices" in captured.err


def test_gen_deterministic(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    main(["gen", "--family", "gnp", "--n", "10", "--seed", "3", "--out", str(a)])
    main(["gen", "--family", "gnp", "--n", "10", "--seed", "3", "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_gen_bad_parameters_are_input_errors(capsys):
    for argv in (
        ["--family", "grid", "--n", "10", "--rows", "0"],
        ["--family", "dumbbell", "--n", "8", "--weight", "0"],
        ["--family", "cycle", "--n", "5", "--weight", "0"],
    ):
        assert main(["gen", *argv]) == 2
        assert "error:" in capsys.readouterr().err


def test_gen_passes_every_spec_field(monkeypatch):
    seen = []

    def recording_generate(spec):
        seen.append(spec)
        return cycle_graph(3)

    monkeypatch.setattr(cutkit.cli, "generate", recording_generate)
    for argv, spec in (
        (["--family", "gnp", "--n", "5"], GeneratorSpec("gnp", 5)),
        (
            "--family grid --n 6 --seed 2 --p 0.3 --w-min 2 --w-max 5 --weight 3 "
            "--rows 2 --side-size 1".split(),
            GeneratorSpec("grid", 6, 2, 0.3, 2, 5, 3, 2, 1),
        ),
    ):
        args = build_parser().parse_args(["gen", *argv, "--out", os.devnull])
        assert args.func(args) == 0
        assert seen.pop() == spec


def test_maxflow_on_edgelist(dumbbell_path, capsys):
    code, doc = run_json(
        capsys,
        ["maxflow", "--graph", dumbbell_path, "--source", "0", "--sink", "7"],
    )
    assert code == 0
    assert doc["schema"] == 6
    assert doc["weight"] == 1
    assert doc["side"] == [0, 1, 2, 3]
    assert doc["calls"] == 1


def test_maxflow_dimacs_defaults(tmp_path, capsys):
    path = tmp_path / "flow.dimacs"
    main(["gen", "--family", "dumbbell", "--n", "6", "--format", "dimacs", "--out", str(path)])
    code, doc = run_json(
        capsys, ["maxflow", "--graph", str(path), "--format", "dimacs"]
    )
    assert code == 0
    assert doc["weight"] == 1


def test_maxflow_dimacs_bad_number_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.dimacs"
    path.write_text("p max 2 1\nn 1 s\nn 2 t\na 1 2 x\n")
    code = main(["maxflow", "--graph", str(path), "--format", "dimacs"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 4:")
    assert "Traceback" not in err
    path.write_text("p max 2 1\np max 5 1\nn 1 s\nn 2 t\na 1 2 3\n")
    code = main(["maxflow", "--graph", str(path), "--format", "dimacs"])
    assert code == 2
    assert capsys.readouterr().err == "error: line 2: duplicate 'p' line\n"


def test_graph_file_that_is_not_utf8_is_input_error(tmp_path, capsys):
    edgelist, dimacs = tmp_path / "bad.graph", tmp_path / "bad.dimacs"
    edgelist.write_bytes(b"p 2 1\n0 1 \xff\n")
    dimacs.write_bytes(b"p max 2 1\nn 1 s\nn 2 t\na 1 2 \xff\n")
    for argv in (
        ["mincut", "--graph", str(edgelist)],
        ["maxflow", "--graph", str(dimacs), "--format", "dimacs"],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {argv[2]}: not UTF-8 text")
        assert "Traceback" not in err


def test_maxflow_sink_on_source_side_is_invariant_failure(dumbbell_path, monkeypatch, capsys):
    class SinkOnSourceSide:
        def glues(self, graph):
            return True

        def solve(self, graph, s, t, memo=None):
            return Cut(VertexSet.from_ids(graph.n, [s, t]), 0)

        def solve_batch(self, instances):
            return [self.solve(graph, s, t) for graph, s, t in instances]

    monkeypatch.setattr("cutkit.cli.get_engine", lambda name: SinkOnSourceSide())
    code = main(["maxflow", "--graph", dumbbell_path, "--source", "0", "--sink", "7"])
    assert code == 3
    assert capsys.readouterr().err == "invariant failure: engine returned sink inside source side\n"


def test_maxflow_requires_endpoints(dumbbell_path, capsys):
    code = main(["maxflow", "--graph", dumbbell_path, "--source", "0"])
    assert code == 2
    assert "source and sink" in capsys.readouterr().err


def test_isolating_fast_and_naive_agree(dumbbell_path, capsys):
    code, fast = run_json(
        capsys,
        ["isolating", "--graph", dumbbell_path, "--terminals", "0,2,5"],
    )
    assert code == 0
    code, naive = run_json(
        capsys,
        ["isolating", "--graph", dumbbell_path, "--terminals", "0,2,5", "--method", "naive"],
    )
    assert code == 0
    fast_cuts = {c["vertex"]: c["weight"] for c in fast["cuts"]}
    naive_cuts = {c["vertex"]: c["weight"] for c in naive["cuts"]}
    assert fast_cuts == naive_cuts
    assert fast["phase_a_calls"] == 2
    assert naive["phase_a_calls"] == 0


def test_isolating_reports_flow_costs(dumbbell_path, capsys):
    argv = ["isolating", "--graph", dumbbell_path, "--terminals", "0,2,5", "--method"]
    costs = ("raw_calls", "recalled_calls", "engine_invocations", "equivalent_calls")
    _, fast = run_json(capsys, argv + ["fast"])
    _, naive = run_json(capsys, argv + ["naive"])
    for doc in (fast, naive):
        assert all(isinstance(doc[key], int) for key in costs), doc
        assert doc["raw_calls"] == doc["phase_a_calls"] + doc["phase_b_calls"]
        assert 0 < doc["engine_invocations"] <= doc["raw_calls"] - doc["recalled_calls"]
    # Phase B counts as one equivalent call; naive's calls count one each.
    assert fast["equivalent_calls"] == fast["phase_a_calls"] + 1
    assert naive["equivalent_calls"] == naive["raw_calls"] == 3


def test_splitter_gen_verified(capsys):
    # Families on at most 16 elements are checked exhaustively when built.
    code, doc = run_json(capsys, ["splitter-gen", "--n", "8", "--k", "2"])
    assert code == 0
    assert doc["verified"] is True
    assert doc["set_count"] == len(doc["sets"])
    assert doc["set_count"] <= doc["size_bound"]
    assert all(len(s) >= 2 for s in doc["sets"])


def test_splitter_gen_verify_size_guard(capsys):
    # Past 16 elements a family is built without the exhaustive check.
    code, doc = run_json(capsys, ["splitter-gen", "--n", "17", "--k", "2"])
    assert code == 0
    assert doc["verified"] is False
    code, doc = run_json(capsys, ["splitter-gen", "--n", "16", "--k", "2"])
    assert doc["verified"] is True


def test_expander_decomp_output(dumbbell_path, capsys):
    code, doc = run_json(
        capsys,
        [
            "expander-decomp",
            "--graph",
            dumbbell_path,
            "--phi",
            "1/2",
            "--demand-value",
            "1",
        ],
    )
    assert code == 0
    assert doc["clusters"] == [[0, 1, 2, 3], [4, 5, 6, 7]]
    assert doc["inter_weight"] == 1
    assert doc["certified"] == [True, True]
    # Demand on three vertices only: a smaller budget, and no split needed.
    code, doc = run_json(
        capsys,
        [
            "expander-decomp",
            "--graph",
            dumbbell_path,
            "--phi",
            "1/2",
            "--demand-value",
            "1",
            "--demand-support",
            "0,3,5",
        ],
    )
    assert code == 0
    assert doc["clusters"] == [list(range(8))]
    assert (doc["budget"], doc["certified"]) == ("27/2", [True])


def test_expander_decomp_bad_phi(dumbbell_path, capsys):
    faults = {"7/2": "phi must be", "abc": "bad phi 'abc'", "1/0": "bad phi '1/0'"}
    for phi, message in faults.items():
        code = main(
            [
                "expander-decomp",
                "--graph",
                dumbbell_path,
                "--phi",
                phi,
                "--demand-value",
                "1",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and message in err


def test_mincut_methods_agree(dumbbell_path, capsys):
    weights = {}
    for method in ("det", "rand", "naive", "stoer-wagner"):
        code, doc = run_json(
            capsys, ["mincut", "--graph", dumbbell_path, "--method", method]
        )
        assert code == 0
        assert doc["method"] == method
        weights[method] = doc["weight"]
    assert set(weights.values()) == {1}


def test_mincut_det_fingerprint_stable(dumbbell_path, capsys):
    _, a = run_json(capsys, ["mincut", "--graph", dumbbell_path])
    _, b = run_json(capsys, ["mincut", "--graph", dumbbell_path])
    assert a["fingerprint"] == b["fingerprint"]
    assert a["raw_calls"] == b["raw_calls"]


def test_mincut_reports_engine_invocations(dumbbell_path, capsys):
    argv = ["mincut", "--graph", dumbbell_path, "--phi", "1/4", "--k", "2", "--engine"]
    _, dinic = run_json(capsys, argv + ["dinic"])
    _, scipy = run_json(capsys, argv + ["scipy"])
    assert dinic["fingerprint"] == scipy["fingerprint"]
    # SciPy solves each isolating phase as one batch; Dinic one flow per instance.
    assert 0 < scipy["engine_invocations"] < dinic["engine_invocations"]
    assert dinic["engine_invocations"] <= dinic["raw_calls"] - dinic["recalled_calls"]


def test_mincut_with_overrides(dumbbell_path, capsys):
    code, doc = run_json(
        capsys,
        [
            "mincut",
            "--graph",
            dumbbell_path,
            "--method",
            "det",
            "--phi",
            "1/4",
            "--k",
            "2",
            "--engine",
            "scipy",
        ],
    )
    assert code == 0
    assert doc["weight"] == 1


def test_steiner_terminals(dumbbell_path, capsys):
    code, doc = run_json(
        capsys,
        ["steiner", "--graph", dumbbell_path, "--terminals", "1,6", "--method", "det"],
    )
    assert code == 0
    assert doc["weight"] == 1
    assert doc["terminals"] == [1, 6]
    assert sorted(doc["side"] + [v for v in range(8) if v not in doc["side"]]) == list(
        range(8)
    )


def test_every_method_reports_a_fingerprint(dumbbell_path, capsys):
    for command, method in (("steiner", "naive"), ("mincut", "naive"), ("mincut", "stoer-wagner")):
        argv = [command, "--graph", dumbbell_path, "--method", method]
        if command == "steiner":
            argv += ["--terminals", "1,6"]
        code, doc = run_json(capsys, argv)
        assert code == 0
        assert doc["weight"] == 1
        assert len(doc["fingerprint"]) == 16
        assert doc["equivalent_calls"] == doc["raw_calls"]


def test_baseline_cut_of_wrong_weight_is_invariant_failure(dumbbell_path, monkeypatch, capsys):
    real_naive = cutkit.bench.naive_steiner

    def heavier_naive(engine, inst, meter):
        cut = real_naive(engine, inst, meter)
        return Cut(cut.side, cut.weight + 1)

    monkeypatch.setattr(cutkit.bench, "naive_steiner", heavier_naive)
    argv = ["steiner", "--graph", dumbbell_path, "--terminals", "1,6", "--method", "naive"]
    assert main(argv) == 3
    assert "reported weight does not match the side" in capsys.readouterr().err


def test_steiner_bad_terminals(dumbbell_path, capsys):
    code = main(["steiner", "--graph", dumbbell_path, "--terminals", "0,99"])
    assert code == 2
    code = main(["steiner", "--graph", dumbbell_path, "--terminals", "zero"])
    assert code == 2
    code = main(["steiner", "--graph", dumbbell_path, "--terminals", ","])
    assert code == 2
    assert capsys.readouterr().err.endswith("error: vertex list is empty\n")


def test_verify_reports_all_ok(dumbbell_path, capsys):
    code, doc = run_json(capsys, ["verify", "--graph", dumbbell_path])
    assert code == 0
    assert doc["all_ok"] is True
    names = {c["name"] for c in doc["checks"]}
    assert "det-matches-naive" in names
    assert "det-matches-contraction" in names
    assert "det-matches-enumeration" in names
    assert all(c["ok"] for c in doc["checks"])


def test_verify_with_terminals(dumbbell_path, capsys):
    code, doc = run_json(
        capsys, ["verify", "--graph", dumbbell_path, "--terminals", "0,7"]
    )
    assert code == 0
    assert doc["all_ok"] is True


def test_verify_runs_det_rounds(dumbbell_path, monkeypatch, capsys):
    # Below k terminals det is only pairwise flows, so verify must use a small k.
    real_det = cutkit.bench.DRIVERS["det"]
    reports = []

    def recording_det(engine, inst, cfg):
        reports.append(real_det(engine, inst, cfg))
        return reports[-1]

    monkeypatch.setitem(cutkit.bench.DRIVERS, "det", recording_det)
    code, doc = run_json(capsys, ["verify", "--graph", dumbbell_path])
    assert code == 0 and doc["all_ok"] is True
    assert reports and all(r.trace.guess_traces for r in reports)


def test_verify_exits_3_when_methods_disagree(dumbbell_path, monkeypatch, capsys):
    real_rand = cutkit.bench.DRIVERS["rand"]

    def heavier_rand(engine, inst, cfg):
        report = real_rand(engine, inst, cfg)
        return SimpleNamespace(cut=Cut(report.cut.side, report.cut.weight + 1), meter=report.meter)

    monkeypatch.setitem(cutkit.bench.DRIVERS, "rand", heavier_rand)
    code, doc = run_json(capsys, ["verify", "--graph", dumbbell_path])
    assert code == 3
    assert doc["all_ok"] is False
    assert [c["name"] for c in doc["checks"] if not c["ok"]] == ["rand-matches-naive"]


def test_bench_seed_seeds_graphs_not_rand_driver(capsys):
    # The rand driver's own seed changes its flow calls, so rows that match a
    # default-config run show that --seed reached only the graph generator.
    argv = ["bench", "--sizes", "16", "--methods", "rand", "--seed", "3", "--engine", "dinic"]
    code, doc = run_json(capsys, argv)
    assert code == 0
    report = run_bench(
        families=("dumbbell", "cycle"),
        sizes=(16,),
        methods=["rand"],
        seed=3,
        engine_name="dinic",
        cfg=default_bench_config(),
    )

    def without_seconds(row: dict) -> dict:
        return {k: v for k, v in row.items() if k != "seconds"}

    assert [without_seconds(r) for r in doc["rows"]] == [
        without_seconds(asdict(r)) for r in report.rows
    ]


def test_bench_subcommand(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    code, doc = run_json(
        capsys,
        [
            "bench",
            "--families",
            "dumbbell",
            "--sizes",
            "8",
            "--methods",
            "det",
            "naive",
            "--engine",
            "dinic",
            "--csv",
            str(csv_path),
        ],
    )
    assert code == 0
    assert doc["schema"] == 6
    assert len(doc["rows"]) == 2
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("family,n,m,method")


def test_missing_file_is_input_error(capsys):
    code = main(["mincut", "--graph", "/nonexistent/graph.txt"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_graph_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("p 3 1\n0 1\n")
    code = main(["mincut", "--graph", str(path)])
    assert code == 2


def test_drivers_accept_merged_weights_beyond_edge_limit(tmp_path, capsys):
    path = tmp_path / "heavy.txt"
    path.write_text("p 3 3\n0 1 1099511627776\n0 1 1099511627776\n1 2 5\n")
    for method in ("det", "rand"):
        code, doc = run_json(
            capsys,
            ["mincut", "--graph", str(path), "--method", method, "--phi", "1/4", "--k", "2"],
        )
        assert code == 0 and doc["weight"] == 5
    code, doc = run_json(capsys, ["isolating", "--graph", str(path), "--terminals", "0,2"])
    assert code == 0
    assert [c["weight"] for c in doc["cuts"]] == [5, 5]


def test_expander_decomp_bad_witness_is_invariant_failure(tmp_path, monkeypatch, capsys):
    # 24 vertices is past the exhaustive limit, so the heuristic runs; a single
    # vertex of a unit cycle has sparsity 2, which does not violate phi = 1/4.
    path = tmp_path / "cycle.txt"
    path.write_text(write_edgelist(cycle_graph(24)))
    monkeypatch.setattr("cutkit.expander._heuristic_violating", lambda graph, d, phi, memo: 1)
    code = main(
        ["expander-decomp", "--graph", str(path), "--phi", "1/4", "--demand-value", "1"]
    )
    assert code == 3
    assert "not sparser than phi" in capsys.readouterr().err
