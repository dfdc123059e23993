"""The benchmark's traced run wraps loadcast functions by name; a rename that
would break `perfbench/run.py --trace 1` has to fail here first."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    targets = layers.targets()
    assert targets
    for module_name, qualname, *_ in targets:
        owner = importlib.import_module(f"loadcast.{module_name}")
        for part in qualname.split("."):
            assert part in vars(owner), f"loadcast.{module_name}.{qualname} not found"
            owner = vars(owner)[part]
        assert callable(getattr(owner, "__func__", owner)), f"{module_name}.{qualname}"
