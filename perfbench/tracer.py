"""Outside-in tracer: wraps cutkit's layer entry points without editing cutkit.

The package binds names at import time (``from .graph import contract`` in
``isolating``, ``maxflow`` and ``oracles``, for example), so wrapping only
the defining module would miss most calls. ``install`` therefore re-binds a
hooked function in every loaded ``cutkit`` module that holds the same
object, and patches the methods ``WeightedGraph.__init__`` and
``*Engine.solve`` on their classes.

Each span records its name, start, end, parent span and the id of the solve
it belongs to. Spans stay in memory until ``write``. A span's self time is
its duration minus the durations of its direct children, so the self times
of all spans add up to the time covered by the outermost spans.
"""

import gzip
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from cutkit import expander, graph, isolating, maxflow, splitters, steiner


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _contract(tr, args, kwargs, result) -> None:
    tr.counts["graph.contract.edges_scanned"] += _arg(args, kwargs, 0, "graph").m


def _solve(tr, args, kwargs, result) -> None:
    tr.counts["maxflow.solve.edges"] += _arg(args, kwargs, 1, "graph").m


def _isolating(tr, args, kwargs, result) -> None:
    g = _arg(args, kwargs, 1, "graph")
    tr.counts["isolating.phase_a_calls"] += len(result.phase_a_calls)
    tr.counts["isolating.phase_b_calls"] += len(result.phase_b_calls)
    tr.counts["isolating.phase_b_edges"] += sum(m for _, m in result.phase_b_calls)
    tr.counts["isolating.phase_b_bound"] += 2 * g.m + len(result.terminals)


def _family(tr, args, kwargs, result) -> None:
    tr.counts["splitters.family.sets"] += len(result.sets)


def _decompose(tr, args, kwargs, result) -> None:
    tr.counts["expander.splits"] += result.splits
    tr.counts["expander.clusters"] += len(result.clusters)
    tr.counts["expander.certified"] += sum(result.certified)


def _driver(tr, args, kwargs, report) -> None:
    trace = report.trace
    tr.counts["steiner.guesses"] += len(trace.guess_traces)
    tr.counts["steiner.rounds"] += sum(len(g.rounds) for g in trace.guess_traces)
    for g in trace.guess_traces:
        tr.counts["steiner.guess." + g.outcome.replace("-", "_")] += 1


@dataclass(frozen=True)
class Hook:
    owner: object  # module or class that defines the callable
    attr: str
    span: str
    calls_metric: str = "calls"
    on_result: Callable | None = None


HOOKS = (
    Hook(graph.WeightedGraph, "__init__", "graph.build"),
    Hook(graph, "contract", "graph.contract", on_result=_contract),
    Hook(graph, "induced_subgraph", "graph.induced_subgraph"),
    Hook(graph, "boundary_edges", "graph.boundary_edges"),
    Hook(graph, "components_after_removal", "graph.components_after_removal"),
    Hook(maxflow.DinicEngine, "solve", "maxflow.solve", on_result=_solve),
    Hook(maxflow.ScipyEngine, "solve", "maxflow.solve", on_result=_solve),
    Hook(maxflow, "min_cut_separating", "maxflow.min_cut_separating"),
    Hook(isolating, "minimum_isolating_cuts", "isolating", "runs", _isolating),
    Hook(splitters, "isolator_family_min2", "splitters.family", on_result=_family),
    Hook(expander, "expander_decompose", "expander.decompose", on_result=_decompose),
    Hook(expander, "_exhaustive_violating", "expander.exhaustive"),
    Hook(expander, "_heuristic_violating", "expander.heuristic"),
    Hook(steiner, "steiner_mincut_det", "steiner.driver", on_result=_driver),
    Hook(steiner, "unbalanced_case", "steiner.unbalanced"),
    Hook(steiner, "sparsify_terminals", "steiner.sparsify"),
    Hook(steiner, "_pairwise_mincut", "steiner.pairwise"),
    # Only the driver's fallback reaches naive_steiner while tracing is on;
    # reference answers are computed with the tracer removed.
    Hook(steiner, "naive_steiner", "steiner.fallback"),
)


class Tracer:
    def __init__(self) -> None:
        # One tuple per span: (name, start, end, parent index or -1, solve id).
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.solve_id = -1
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, hook: Hook):
        spans, stack, clock = self.spans, self._open, time.perf_counter
        name, on_result = hook.span, hook.on_result

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.solve_id)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "cutkit" or key.startswith("cutkit."))
        ]
        for hook in HOOKS:
            original = getattr(hook.owner, hook.attr)
            wrapper = self._wrap(original, hook)
            owners = [hook.owner] if isinstance(hook.owner, type) else [
                m for m in modules if getattr(m, hook.attr, None) is original
            ]
            for owner in owners:
                self._patched.append((owner, hook.attr, original))
                setattr(owner, hook.attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer calls, self seconds and ratios over all recorded spans.

        ``wall_s`` is the traced time; ``trace.other_s`` is the part of it
        no span covers, so the self times plus ``trace.other_s`` equal it.
        """
        calls: Counter = Counter()
        self_s: Counter = Counter()
        covered = 0.0
        for name, start, end, parent, _ in self.spans:
            dur = end - start
            calls[name] += 1
            self_s[name] += dur
            if parent >= 0:
                self_s[self.spans[parent][0]] -= dur
            else:
                covered += dur
        out: dict[str, float] = {}
        for hook in HOOKS:
            out[f"{hook.span}.{hook.calls_metric}"] = calls[hook.span]
            out[f"{hook.span}.self_s"] = self_s[hook.span]
        c = self.counts
        for key in (
            "graph.contract.edges_scanned", "maxflow.solve.edges",
            "isolating.phase_a_calls", "isolating.phase_b_calls",
            "splitters.family.sets", "expander.splits", "steiner.guesses",
            "steiner.guess.completed", "steiner.guess.collapsed",
            "steiner.guess.not_halved", "steiner.guess.decomposition_failed",
        ):
            out[key] = c[key]
        out["maxflow.solve.us_per_call"] = (
            1e6 * self_s["maxflow.solve"] / max(calls["maxflow.solve"], 1)
        )
        out["isolating.phase_b_edge_frac"] = (
            c["isolating.phase_b_edges"] / max(c["isolating.phase_b_bound"], 1)
        )
        out["expander.certified_frac"] = (
            c["expander.certified"] / max(c["expander.clusters"], 1)
        )
        rounds = c["steiner.rounds"]
        out["steiner.memo_hit_frac"] = (
            1 - calls["steiner.unbalanced"] / rounds if rounds else 0.0
        )
        out["trace.spans"] = len(self.spans)
        out["trace.wall_s"] = wall_s
        out["trace.other_s"] = wall_s - covered
        return out

    def write(self, path) -> None:
        """Dump every span as CSV: name,start,end,parent,solve."""
        with gzip.open(path, "wt") as f:
            f.write("name,start,end,parent,solve\n")
            for name, start, end, parent, solve in self.spans:
                f.write(f"{name},{start:.9f},{end:.9f},{parent},{solve}\n")
