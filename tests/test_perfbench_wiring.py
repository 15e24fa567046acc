"""The benchmark's span recorder names library functions by module and
attribute path; a renamed or deleted function would only read as 0 calls
there, so every traced name must still resolve in the package."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_layers_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    missing = []
    for prefix, module, path, _hot, _hook in tracer.LAYERS:
        obj = importlib.import_module(f"elliptic_poisson.{module}")
        for part in path.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{prefix}: elliptic_poisson.{module}.{path}")
    assert not missing, missing
