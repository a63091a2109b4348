"""cutkit benchmark: exact min-cut workloads timed end to end, or traced by layer.

    python3 perfbench/run.py --workload global-dense --seed 1 --seconds 30 --trace 0

Each workload runs in fresh worker processes (``worker.py``): one caller in
a closed loop, single-threaded. With ``--trace 0`` five workers run one
after another; each sets up and times passes over the corpus for a fifth
of ``--seconds``, set-up included. The result holds the end-to-end
metrics: ``wall_s`` sums each instance's median solve over all passes, and
``setup_s`` is the median set-up time of the workers, both in reference
seconds (``calibrate.py``). With ``--trace 1`` one worker solves every
instance untraced and then traced, and the result holds the per-layer
metrics. Every answer is checked against an oracle. The last line of
standard output is the JSON result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import calibration_s, reference_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKERS = 5
DEADLINE_S = 170
# numpy links a multithreaded OpenBLAS, and the expander heuristic calls
# eigh; one thread keeps runs steady on a shared machine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LAYER_UNITS = {"self_s": "s", "other_s": "s", "wall_s": "s", "us_per_call": "us",
               "edges": "edges", "edges_scanned": "edges"}


def run_worker(args, until: float, deadline: float, spans: Path | None) -> dict:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    # The same string hashes in every worker, so every worker lays out its
    # dicts and sets alike.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--until", repr(until), "--trace", str(args.trace),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    calib = calibration_s()
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)], env=env, cwd=ROOT, stdout=subprocess.PIPE,
        text=True, timeout=max(deadline - t0, 1),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    out = json.loads(lines[-1])
    out["setup_ref_s"] = reference_s(out["setup_s"], calib, out["setup_calib_s"])
    return out


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def wall_s(runs: list[dict]) -> float:
    """One pass over the corpus: each instance's median solve, summed.

    Solve times are in reference seconds (see ``calibrate.py``); the median
    runs over every pass of every worker.
    """
    passes = [p for r in runs for p in r["solve_s"]]
    return sum(statistics.median(times) for times in zip(*passes))


def end_to_end(runs: list[dict]) -> dict:
    base = runs[0]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {
        "wall_s": metric(wall_s(runs), "s"),
        "setup_s": metric(statistics.median(r["setup_ref_s"] for r in runs), "s"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        "raw_calls": metric(base["raw_calls"], "calls"),
        "equivalent_calls": metric(base["equivalent_calls"], "calls"),
        "flow_edges": metric(base["flow_edges"], "edges"),
        "eq_call_ratio": metric(base["equivalent_calls"] / base["terminal_pairs"], "ratio"),
        "exact_frac": metric(1 - failed / attempted, "fraction"),
    }


def per_layer(run: dict) -> dict:
    layers = dict(run["layers"])
    layers["steiner.fingerprint_changed"] = run["fingerprint_changed"]
    layers["steiner.fingerprint_checked"] = run["fingerprint_checked"]
    out = {}
    for name, value in sorted(layers.items()):
        suffix = name.rsplit(".", 1)[1]
        default = "fraction" if suffix.endswith("_frac") else "count"
        out[name] = metric(value, LAYER_UNITS.get(suffix, default))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "cutkit" / "__init__.py").is_file():
        print(f"no cutkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + DEADLINE_S
    spans = None
    if args.trace:
        spans = HERE / "out" / f"spans-{args.workload}-s{args.seed}.csv.gz"
        spans.parent.mkdir(exist_ok=True)
    workers = 1 if args.trace else WORKERS
    try:
        # Each worker, set-up included, gets an equal share of what is left
        # of --seconds, so the run lasts --seconds plus at most one pass.
        runs = []
        for i in range(workers):
            now = time.monotonic()
            until = now + (start + args.seconds - now) / (workers - i)
            runs.append(run_worker(args, until, deadline, spans))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    # Counts and fingerprints are deterministic, so every worker must agree.
    same = ("raw_calls", "equivalent_calls", "flow_edges", "fingerprints")
    agree = all(r[key] == runs[0][key] for r in runs for key in same)
    correct = agree and all(r["failed"] == 0 and r.get("trace_ok", True) for r in runs)
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": per_layer(runs[0]) if args.trace else end_to_end(runs),
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
