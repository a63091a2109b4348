"""The benchmark tracer hooks cutkit names from outside; keep them resolvable."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    return tracer


def _bindings(hooks) -> dict:
    """Every attribute of a loaded cutkit module, plus each hooked class method."""
    out = {}
    for key, module in list(sys.modules.items()):
        if module is not None and (key == "cutkit" or key.startswith("cutkit.")):
            out.update(((key, name), obj) for name, obj in vars(module).items())
    for hook in hooks:
        if isinstance(hook.owner, type):
            out[(hook.owner, hook.attr)] = vars(hook.owner)[hook.attr]
    return out


def test_hooks_resolve_and_uninstall_restores(tracer):
    for hook in tracer.HOOKS:
        assert callable(getattr(hook.owner, hook.attr, None)), hook
    before = _bindings(tracer.HOOKS)
    originals = [getattr(hook.owner, hook.attr) for hook in tracer.HOOKS]
    tr = tracer.Tracer()
    tr.install()
    try:
        for hook, original in zip(tracer.HOOKS, originals):
            assert getattr(hook.owner, hook.attr) is not original, hook
    finally:
        tr.uninstall()
    after = _bindings(tracer.HOOKS)
    assert after.keys() == before.keys()
    assert all(after[key] is obj for key, obj in before.items())
