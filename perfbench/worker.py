"""One workload process: set up, time passes over the corpus, check every answer.

Started by ``run.py`` in a fresh interpreter with ``src`` and this directory
on the path. Only the solves are timed; instance generation, the warm-up
solve and the oracle checks fall outside the timed region. Prints one JSON
object as the last line of standard output.
"""

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from cutkit import maxflow

from calibrate import calibration_s, reference_s
from tracer import Tracer
from workloads import WORKLOADS, config, solve, warmup_instance

LEDGER = Path(__file__).resolve().parent / "reference.json"


def timed_solve(engine, inst, cfg):
    """(seconds, report), or (seconds, exception) for a solve that raised.

    Garbage left by the previous solve is collected first, outside the
    timed region, so every solve starts from the same heap.
    """
    gc.collect()
    start = time.perf_counter()
    try:
        report = solve(engine, inst, cfg)
    except Exception as exc:  # a failed solve is counted, not fatal
        traceback.print_exc()
        report = exc
    return time.perf_counter() - start, report


def calibration_after_gc() -> float:
    gc.collect()
    return calibration_s()


def timed_pass(engine, corpus, cfg):
    """Solve every instance once: (reference seconds per solve, results).

    The calibration loop runs before the first solve and after every solve,
    so each solve is timed between two runs of it.
    """
    calib, seconds, results = [calibration_after_gc()], [], []
    for inst in corpus:
        t, report = timed_solve(engine, inst, cfg)
        calib.append(calibration_after_gc())
        seconds.append(t)
        results.append(report)
    ref = [reference_s(t, *around) for t, around in zip(seconds, zip(calib, calib[1:]))]
    return ref, results


def traced_pass(engine, corpus, cfg, tracer):
    """Solve each instance untraced and then traced, back to back.

    Pairing the two solves of one instance keeps the overhead estimate free
    of the load drift a shared machine shows over tens of seconds.
    """
    plain, traced = ([], []), ([], [])
    for i, inst in enumerate(corpus):
        t, report = timed_solve(engine, inst, cfg)
        plain[0].append(t)
        plain[1].append(report)
        tracer.solve_id = i
        tracer.install()
        try:
            t, report = timed_solve(engine, inst, cfg)
        finally:
            tracer.uninstall()
        traced[0].append(t)
        traced[1].append(report)
    return plain, traced


def failures(corpus, refs, results) -> int:
    """Solves that raised, missed the reference weight, or returned a bad cut."""
    bad = 0
    for inst, ref, rep in zip(corpus, refs, results):
        if isinstance(rep, Exception):
            bad += 1
            continue
        inside = rep.cut.side.intersection(inst.terminals)
        separates = bool(inside) and inside != inst.terminals
        if rep.weight != ref or not rep.cut.verify(inst.graph) or not separates:
            print(f"wrong answer on {inst.label}: {rep.weight} != {ref}", file=sys.stderr)
            bad += 1
    return bad


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--until", type=float, required=True,
                    help="time.monotonic() by which the timed passes end (untraced runs)")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the launcher started this process")
    ap.add_argument("--spans", help="file the traced run writes its spans to")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload]
    engine = maxflow.get_engine(wl.engine)
    cfg = config()
    corpus = wl.corpus(args.seed)
    solve(engine, warmup_instance(), cfg)
    out = {"setup_s": time.monotonic() - args.t0, "setup_calib_s": calibration_after_gc()}

    if args.trace:
        tracer = Tracer()
        (plain, first), (traced, results) = traced_pass(engine, corpus, cfg, tracer)
        runs, passes = [first, results], [plain]
        layers = tracer.layer_metrics(sum(traced))
        layers["trace.overhead_frac"] = sum(traced) / sum(plain) - 1
        traced_raw = sum(r.meter.call_count for r in results if not isinstance(r, Exception))
        out["trace_ok"] = layers["maxflow.solve.calls"] == traced_raw
        out["layers"] = layers
        if args.spans:
            tracer.write(args.spans)
    else:
        # Start another pass only while a whole one still fits before --until.
        runs, passes = [], []
        start = now = time.monotonic()
        while not passes or now + (now - start) / len(passes) <= args.until:
            seconds, results = timed_pass(engine, corpus, cfg)
            passes.append(seconds)
            runs.append(results)
            now = time.monotonic()
    out["solve_s"] = passes

    refs = [wl.reference(inst) for inst in corpus]
    out["attempted"] = len(corpus) * len(runs)
    out["failed"] = sum(failures(corpus, refs, r) for r in runs)

    ok = [r for r in runs[0] if not isinstance(r, Exception)]
    out["raw_calls"] = sum(r.meter.call_count for r in ok)
    out["equivalent_calls"] = sum(r.equivalent_calls for r in ok)
    out["flow_edges"] = sum(r.meter.aggregate_edges for r in ok)
    out["terminal_pairs"] = sum(len(inst.terminals) - 1 for inst in corpus)
    ledger = json.loads(LEDGER.read_text())["workloads"][args.workload]
    prints = {
        inst.label: rep.fingerprint()
        for inst, rep in zip(corpus, runs[0]) if not isinstance(rep, Exception)
    }
    checked = [label for label in prints if label in ledger]
    out["fingerprints"] = prints
    out["fingerprint_checked"] = len(checked)
    out["fingerprint_changed"] = sum(prints[lb] != ledger[lb] for lb in checked)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
