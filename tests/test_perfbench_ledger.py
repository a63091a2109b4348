"""Every benchmark instance at the ledger's seed still solves to its fingerprint.

``CutReport.fingerprint()`` covers the cut, its weight, the equivalent calls
and the whole (n, m) flow-call sequence, so a refactor that changes any of
them fails here instead of only in the benchmark.
"""

import json
from pathlib import Path

import pytest

from cutkit import get_engine

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LEDGER = json.loads((PERFBENCH / "reference.json").read_text())


@pytest.fixture()
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    return workloads


@pytest.mark.parametrize("name", sorted(LEDGER["workloads"]))
def test_fingerprints_match_the_ledger(workloads, name):
    wl = workloads.WORKLOADS[name]
    engine = get_engine(wl.engine)
    got = {
        inst.label: workloads.solve(engine, inst, workloads.config()).fingerprint()
        for inst in wl.corpus(LEDGER["seed"])
    }
    assert got == LEDGER["workloads"][name]
