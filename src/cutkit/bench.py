"""Flow-call benchmark: the fast driver versus the naive baseline.

Counts are reported four ways. Raw calls are the logical max-flow calls,
one metered call per ``max_flow``. Every distinct nontrivial instance is
solved once for a run (``maxflow.solve_ahead``), and recalled calls are
the nontrivial raw calls beyond those solves, each answered from the
run's memo. Equivalent calls (FlowMeter.equivalent_calls) count one per
metered call, except that an isolating run's whole phase B counts as one,
because its instances together are no bigger than a single instance; the
budget below is stated in equivalent calls. Engine invocations count the
flows the engine actually ran: the SciPy engine solves each phase of a
chunk of a round's isolating runs in one batch, so its invocations fall
far below the raw calls it did not recall.
"""

import csv
import io
import math
import time
from dataclasses import asdict, astuple, dataclass, fields
from fractions import Fraction

from .errors import ContractViolation, InputError
from .generators import GeneratorSpec, generate
from .graph import WeightedGraph
from .maxflow import FlowMeter, get_engine
from .oracles import naive_steiner, stoer_wagner
from .splitters import family_size_bound
from .steiner import (
    AlgoConfig,
    CutReport,
    DriverTrace,
    SteinerInstance,
    checked_report,
    steiner_mincut_det,
    steiner_mincut_rand,
)

SCHEMA = 6
BENCH_FAMILIES = ("dumbbell", "cycle", "clique", "grid", "gnp")
BENCH_METHODS = ("det", "naive", "rand", "stoer-wagner")
DRIVERS = {"det": steiner_mincut_det, "rand": steiner_mincut_rand}


def default_bench_config() -> AlgoConfig:
    """Small k and moderate phi keep the family sizes sane at bench scale."""
    return AlgoConfig(phi=Fraction(1, 4), k=2)


def det_call_budget(n: int, cfg: AlgoConfig) -> int:
    """Closed-form cap on the driver's equivalent calls for n terminals.

    Rounds times family size times per-run cost, plus the final pairwise
    phase, one slot per round, and n for fallback passes. The dominant term
    is polylogarithmic in n, so budget divided by n shrinks as n grows.
    """
    if n < 2:
        raise InputError("budget needs at least two terminals")
    k = cfg.k_effective()
    if n < k:
        return n - 1
    rounds = n.bit_length()
    fam = family_size_bound(n, min(k, n - 1))
    per_run = (n - 1).bit_length() + 1
    return rounds * fam * per_run + math.comb(min(k, n), 2) + rounds + n


@dataclass
class BenchRow:
    family: str
    n: int
    m: int
    method: str
    weight: int
    raw_calls: int
    equivalent_calls: int
    recalled_calls: int
    engine_invocations: int
    agg_vertices: int
    agg_edges: int
    seconds: float
    budget: int | None = None
    within_budget: bool | None = None


CSV_COLUMNS = tuple(f.name for f in fields(BenchRow))


@dataclass
class BenchReport:
    engine: str
    phi: str
    k: int
    rows: list[BenchRow]


def bench_graph(family: str, n: int, seed: int = 0) -> WeightedGraph:
    """The bench instance of a family at size n.

    gnp graphs have expected degree ln n + 2, i.e. p = (ln n + 2) / (n - 1)
    capped at 1: just past the connectivity threshold ln n, so a connected
    sample turns up within a few tries at every size.
    """
    if family not in BENCH_FAMILIES:
        raise InputError(f"unknown bench family {family!r}; choose from {BENCH_FAMILIES}")
    rows = None
    if family == "grid":
        # The most nearly square grid: rows is n's largest divisor <= isqrt(n).
        rows = next((r for r in range(math.isqrt(n), 1, -1) if n % r == 0), None)
        if rows is None:
            raise InputError(f"grid bench size {n} has no divisor in [2, isqrt(n)]")
    p = min(1.0, (math.log(max(n, 1)) + 2) / max(n - 1, 1))
    return generate(GeneratorSpec(family, n, seed=seed, p=p, rows=rows))


def run_method(method: str, engine, inst: SteinerInstance, cfg: AlgoConfig) -> CutReport:
    """Solve inst with one of BENCH_METHODS and report its checked cut.

    The baselines' cuts pass the drivers' check (``checked_report``), so no
    method reports a cut that does not separate the terminals at its weight.
    """
    if method in DRIVERS:
        return DRIVERS[method](engine, inst, cfg)
    meter = FlowMeter()
    if method == "naive":
        cut = naive_steiner(engine, inst, meter)
    elif method != "stoer-wagner":
        raise InputError(f"unknown method {method!r}; choose from {BENCH_METHODS}")
    elif inst.terminals != inst.graph.full_set:
        raise InputError("stoer-wagner applies only when every vertex is terminal")
    else:
        cut = stoer_wagner(inst.graph)
    return checked_report(inst, cut, meter, DriverTrace(method=method))


def run_bench(
    families=("dumbbell", "cycle"),
    sizes=(64, 128, 256),
    methods=("det", "naive"),
    engine_name: str = "scipy",
    cfg: AlgoConfig | None = None,
    seed: int = 0,
) -> BenchReport:
    """Time and meter each method on each instance; exact methods must agree."""
    cfg = cfg or default_bench_config()
    engine = get_engine(engine_name)
    unknown = [m for m in methods if m not in BENCH_METHODS]
    if unknown:
        raise InputError(f"unknown methods {unknown}; choose from {BENCH_METHODS}")
    rows: list[BenchRow] = []
    for family in families:
        for n in sizes:
            graph = bench_graph(family, n, seed)
            inst = SteinerInstance(graph, graph.full_set)
            exact_weights: dict[str, int] = {}
            for method in methods:
                start = time.perf_counter()
                report = run_method(method, engine, inst, cfg)
                seconds = time.perf_counter() - start
                meter = report.meter
                if method != "rand":
                    exact_weights[method] = report.cut.weight
                eq = meter.equivalent_calls
                budget = det_call_budget(len(inst.terminals), cfg) if method == "det" else None
                rows.append(
                    BenchRow(
                        family=family,
                        n=n,
                        m=graph.m,
                        method=method,
                        weight=report.cut.weight,
                        raw_calls=meter.call_count,
                        equivalent_calls=eq,
                        recalled_calls=meter.recalled,
                        engine_invocations=meter.engine_invocations,
                        agg_vertices=meter.aggregate_vertices,
                        agg_edges=meter.aggregate_edges,
                        seconds=round(seconds, 6),
                        budget=budget,
                        within_budget=None if budget is None else eq <= budget,
                    )
                )
            if len(set(exact_weights.values())) > 1:
                raise ContractViolation(
                    f"exact methods disagree on {family} n={n}: {exact_weights}"
                )
    return BenchReport(
        engine=engine_name,
        phi=f"{cfg.phi.numerator}/{cfg.phi.denominator}",
        k=cfg.k_effective(),
        rows=rows,
    )


def report_to_json(report: BenchReport) -> dict:
    return {
        "schema": SCHEMA,
        "engine": report.engine,
        "phi": report.phi,
        "k": report.k,
        "rows": [asdict(r) for r in report.rows],
    }


def _csv_cell(value):
    if value is None:
        return ""
    return str(value).lower() if isinstance(value, bool) else value


def report_to_csv(report: BenchReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for r in report.rows:
        writer.writerow([_csv_cell(v) for v in astuple(r)])
    return buf.getvalue()
