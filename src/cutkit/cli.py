"""Command line access to the generators, flow engines, and cut algorithms.

Exit codes: 0 on success, 2 for bad input (including unreadable files and
malformed arguments), 3 when an internal invariant or decomposition budget
check fails. JSON payloads all carry a schema field, bench.SCHEMA.
"""

import argparse
import dataclasses
import json
import sys
from fractions import Fraction

from .bench import (
    BENCH_FAMILIES,
    BENCH_METHODS,
    SCHEMA,
    default_bench_config,
    report_to_csv,
    report_to_json,
    run_bench,
    run_method,
)
from .errors import ContractViolation, DecompositionError, InputError
from .expander import DemandVector, _check_phi, expander_decompose
from .generators import FAMILIES, GeneratorSpec, generate
from .graph import (
    VertexSet,
    WeightedGraph,
    parse_dimacs,
    parse_edgelist,
    write_dimacs,
    write_edgelist,
)
from .isolating import minimum_isolating_cuts
from .maxflow import ENGINE_NAMES, FlowMeter, get_engine, max_flow
from .oracles import enumerate_cuts, naive_isolating
from .splitters import EXHAUSTIVE_LIMIT, isolator_family_min2
from .steiner import AlgoConfig, SteinerInstance


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read_graph(args) -> tuple[WeightedGraph, int | None, int | None]:
    """Graph plus the source/sink designations when the format carries them."""
    text = _read_text(args.graph)
    if args.format == "dimacs":
        return parse_dimacs(text)
    return parse_edgelist(text), None, None


def _parse_ids(spec: str, n: int) -> VertexSet:
    try:
        ids = [int(part) for part in spec.replace(",", " ").split()]
    except ValueError as exc:
        raise InputError(f"bad vertex list {spec!r}") from exc
    if not ids:
        raise InputError("vertex list is empty")
    return VertexSet.from_ids(n, ids)


def _terminals(args, graph: WeightedGraph) -> VertexSet:
    """The --terminals ids when the subcommand has that flag and it is set, else all of V."""
    spec = getattr(args, "terminals", None)
    return graph.full_set if spec is None else _parse_ids(spec, graph.n)


def _parse_phi(spec: str) -> Fraction:
    try:
        phi = Fraction(spec)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad phi {spec!r}") from exc
    _check_phi(phi)
    return phi


def _emit(payload: dict, out: str | None = None) -> None:
    _write_text(out, json.dumps({"schema": SCHEMA, **payload}, indent=2))


def _cut_payload(cut) -> dict:
    return {"weight": cut.weight, "side": cut.side.members()}


def _cost_payload(meter: FlowMeter) -> dict:
    return {
        "raw_calls": meter.call_count,
        "recalled_calls": meter.recalled,
        "engine_invocations": meter.engine_invocations,
        "equivalent_calls": meter.equivalent_calls,
    }


def _config_from(args, base: AlgoConfig) -> AlgoConfig:
    """base with every config flag the subcommand has and the user set swapped in."""
    flags = {"phi": "phi", "k": "k", "seed": "seed", "rand_reps": "reps"}
    kwargs = {f: getattr(args, flag, None) for f, flag in flags.items()}
    kwargs = {f: v for f, v in kwargs.items() if v is not None}
    if "phi" in kwargs:
        kwargs["phi"] = _parse_phi(kwargs["phi"])
    return dataclasses.replace(base, **kwargs)


def cmd_gen(args) -> int:
    fields = dataclasses.fields(GeneratorSpec)
    graph = generate(GeneratorSpec(**{f.name: getattr(args, f.name) for f in fields}))
    if args.format == "dimacs":
        text = write_dimacs(graph, 0, graph.n - 1)
    else:
        text = write_edgelist(graph)
    _write_text(args.out, text)
    return 0


def cmd_maxflow(args) -> int:
    graph, file_s, file_t = _read_graph(args)
    source = args.source if args.source is not None else file_s
    sink = args.sink if args.sink is not None else file_t
    if source is None or sink is None:
        raise InputError("source and sink are required unless the file names them")
    engine = get_engine(args.engine)
    meter = FlowMeter()
    cut = max_flow(engine, graph, source, sink, meter)
    _emit({**_cut_payload(cut), "calls": meter.call_count}, args.out)
    return 0


def cmd_isolating(args) -> int:
    graph = _read_graph(args)[0]
    terminals = _parse_ids(args.terminals, graph.n)
    engine = get_engine(args.engine)
    meter = FlowMeter()
    if args.method == "naive":
        result = naive_isolating(engine, graph, terminals, meter)
    else:
        result = minimum_isolating_cuts(engine, graph, terminals, meter)
    _emit(
        {
            "terminals": terminals.members(),
            "cuts": [
                {"vertex": v, **_cut_payload(e.cut)}
                for v, e in sorted(result.entries.items())
            ],
            "phase_a_calls": len(result.phase_a_calls),
            "phase_b_calls": len(result.phase_b_calls),
            **_cost_payload(meter),
        },
        args.out,
    )
    return 0


def cmd_splitter_gen(args) -> int:
    family = isolator_family_min2(args.n, args.k)
    _emit(
        {
            "n": args.n,
            "k": args.k,
            "size_bound": family.size_bound,
            "set_count": len(family),
            "sets": [s.members() for s in family],
            # The builders check every family this small exhaustively.
            "verified": args.n <= EXHAUSTIVE_LIMIT,
        },
        args.out,
    )
    return 0


def cmd_expander_decomp(args) -> int:
    graph = _read_graph(args)[0]
    phi = _parse_phi(args.phi)
    if args.demand_support == "all":
        support = None
    else:
        support = _parse_ids(args.demand_support, graph.n)
    demands = DemandVector.uniform(graph.n, args.demand_value, support)
    dec = expander_decompose(graph, demands, phi)
    _emit(
        {
            "phi": str(phi),
            "clusters": [c.members() for c in dec.clusters],
            "certified": list(dec.certified),
            "inter_weight": dec.inter_weight,
            "budget": str(dec.budget),
            "splits": dec.splits,
        },
        args.out,
    )
    return 0


def cmd_solve(args) -> int:
    graph = _read_graph(args)[0]
    inst = SteinerInstance(graph, _terminals(args, graph))
    engine = get_engine(args.engine)
    report = run_method(args.method, engine, inst, _config_from(args, AlgoConfig()))
    payload = {
        **_cut_payload(report.cut),
        **_cost_payload(report.meter),
        "fingerprint": report.fingerprint(),
        "method": args.method,
        "terminals": inst.terminals.members(),
    }
    _emit(payload, args.out)
    return 0


def cmd_verify(args) -> int:
    graph = _read_graph(args)[0]
    inst = SteinerInstance(graph, _terminals(args, graph))
    engine = get_engine(args.engine)
    # The bench config's k=2 sends det through its rounds; at the default
    # k = (1 + 1/phi)^3 small inputs would go straight to pairwise flows.
    cfg = default_bench_config()

    def weight_of(method: str) -> int:
        return run_method(method, engine, inst, cfg).cut.weight

    weight = {m: weight_of(m) for m in ("det", "rand", "naive")}
    pairs = [("det", "naive"), ("rand", "naive")]
    if inst.terminals == graph.full_set:
        weight["contraction"] = weight_of("stoer-wagner")
        pairs.append(("det", "contraction"))
    if graph.n <= 12:
        weight["enumeration"] = enumerate_cuts(graph, terminals=inst.terminals).weight
        pairs.append(("det", "enumeration"))
    checks = [
        {
            "name": f"{a}-matches-{b}",
            "ok": weight[a] == weight[b],
            "detail": f"{a}={weight[a]} {b}={weight[b]}",
        }
        for a, b in pairs
    ]
    all_ok = all(c["ok"] for c in checks)
    _emit({"checks": checks, "all_ok": all_ok}, args.out)
    return 0 if all_ok else 3


def cmd_bench(args) -> int:
    report = run_bench(
        families=args.families,
        sizes=args.sizes,
        methods=args.methods,
        engine_name=args.engine,
        cfg=_config_from(args, default_bench_config()),
        seed=args.graph_seed,
    )
    if args.csv is not None:
        _write_text(args.csv, report_to_csv(report))
    _emit(report_to_json(report), args.out)
    return 0


def _add_graph_args(sub) -> None:
    sub.add_argument("--graph", required=True, help="path to the graph, or - for stdin")
    sub.add_argument(
        "--format",
        choices=("edgelist", "dimacs"),
        default="edgelist",
        help="graph file format (default edgelist)",
    )


def _add_engine_arg(sub) -> None:
    sub.add_argument(
        "--engine",
        choices=ENGINE_NAMES,
        default="dinic",
        help="max-flow engine (default dinic)",
    )


def _add_out_arg(sub) -> None:
    sub.add_argument("--out", default=None, help="output path (default stdout)")


def _add_config_args(sub) -> None:
    sub.add_argument("--phi", default=None, help="expansion parameter, e.g. 1/16")
    sub.add_argument("--k", type=int, default=None, help="unbalance threshold override")
    sub.add_argument("--seed", type=int, default=None, help="seed for the randomized driver")
    sub.add_argument("--reps", type=int, default=None, help="sampling repetitions per scale")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutkit",
        description="Minimum cuts, isolating cuts, and expander decompositions.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate a test graph")
    gen.add_argument("--family", choices=FAMILIES, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--p", type=float, default=0.5)
    gen.add_argument("--w-min", type=int, default=1)
    gen.add_argument("--w-max", type=int, default=8)
    gen.add_argument("--weight", type=int, default=1)
    gen.add_argument("--rows", type=int, default=None)
    gen.add_argument("--side-size", type=int, default=None)
    gen.add_argument(
        "--format", choices=("edgelist", "dimacs"), default="edgelist"
    )
    _add_out_arg(gen)
    gen.set_defaults(func=cmd_gen)

    mf = subs.add_parser("maxflow", help="single source-sink max flow / min cut")
    _add_graph_args(mf)
    mf.add_argument("--source", type=int, default=None)
    mf.add_argument("--sink", type=int, default=None)
    _add_engine_arg(mf)
    _add_out_arg(mf)
    mf.set_defaults(func=cmd_maxflow)

    iso = subs.add_parser("isolating", help="minimum isolating cuts for terminals")
    _add_graph_args(iso)
    iso.add_argument("--terminals", required=True, help="comma separated vertex ids")
    iso.add_argument("--method", choices=("fast", "naive"), default="fast")
    _add_engine_arg(iso)
    _add_out_arg(iso)
    iso.set_defaults(func=cmd_isolating)

    sg = subs.add_parser("splitter-gen", help="derandomized isolator set family")
    sg.add_argument("--n", type=int, required=True)
    sg.add_argument("--k", type=int, required=True)
    _add_out_arg(sg)
    sg.set_defaults(func=cmd_splitter_gen)

    ed = subs.add_parser("expander-decomp", help="demand-weighted expander decomposition")
    _add_graph_args(ed)
    ed.add_argument("--phi", required=True, help="expansion parameter, e.g. 1/4")
    ed.add_argument("--demand-value", type=int, required=True)
    ed.add_argument(
        "--demand-support",
        default="all",
        help="comma separated vertex ids, or 'all'",
    )
    _add_out_arg(ed)
    ed.set_defaults(func=cmd_expander_decomp)

    mc = subs.add_parser("mincut", help="global minimum cut (terminals = all)")
    _add_graph_args(mc)
    mc.add_argument("--method", choices=BENCH_METHODS, default="det")
    _add_engine_arg(mc)
    _add_config_args(mc)
    _add_out_arg(mc)
    mc.set_defaults(func=cmd_solve)

    st = subs.add_parser("steiner", help="minimum cut separating given terminals")
    _add_graph_args(st)
    st.add_argument("--terminals", required=True, help="comma separated vertex ids")
    st.add_argument(
        "--method", choices=[m for m in BENCH_METHODS if m != "stoer-wagner"], default="det"
    )
    _add_engine_arg(st)
    _add_config_args(st)
    _add_out_arg(st)
    st.set_defaults(func=cmd_solve)

    ver = subs.add_parser("verify", help="cross-check the solvers on one instance")
    _add_graph_args(ver)
    ver.add_argument("--terminals", default=None, help="comma separated vertex ids")
    _add_engine_arg(ver)
    _add_out_arg(ver)
    ver.set_defaults(func=cmd_verify)

    be = subs.add_parser("bench", help="meter the drivers against the naive baseline")
    be.add_argument("--families", nargs="+", default=["dumbbell", "cycle"], choices=BENCH_FAMILIES)
    be.add_argument("--sizes", nargs="+", type=int, default=[64, 128, 256])
    be.add_argument("--methods", nargs="+", default=["det", "naive"], choices=BENCH_METHODS)
    be.add_argument("--engine", choices=ENGINE_NAMES, default="scipy")
    be.add_argument("--phi", default=None)
    be.add_argument("--k", type=int, default=None)
    be.add_argument(
        "--seed", dest="graph_seed", type=int, default=0, help="seed for the generated graphs"
    )
    be.add_argument("--csv", default=None, help="also write rows as CSV to this path")
    _add_out_arg(be)
    be.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ContractViolation, DecompositionError) as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
