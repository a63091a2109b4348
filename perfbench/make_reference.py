"""Rebuild the fingerprint ledger ``reference.json`` at the default seed.

    PYTHONPATH=src:perfbench python3 perfbench/make_reference.py

Solves every instance of every workload at seed 0, checks the weight against
the workload's oracle, and records ``CutReport.fingerprint()`` per instance.
A change that moves a fingerprint on purpose regenerates this file and says
so; a refactor leaves it unchanged.
"""

import json
from pathlib import Path

from cutkit import maxflow

from workloads import WORKLOADS, config, solve

DEFAULT_SEED = 0


def main() -> None:
    ledger = {}
    for name, wl in WORKLOADS.items():
        engine = maxflow.get_engine(wl.engine)
        ledger[name] = {}
        for inst in wl.corpus(DEFAULT_SEED):
            report = solve(engine, inst, config())
            if report.weight != wl.reference(inst):
                raise SystemExit(f"{name}/{inst.label}: weight disagrees with oracle")
            ledger[name][inst.label] = report.fingerprint()
    out = {"seed": DEFAULT_SEED, "workloads": ledger}
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
