"""The benchmark's span recorder names library functions by module and
attribute path; a renamed or deleted function would only read as 0 calls
there, so every traced name must still resolve in the package.  A call
rerouted around a traced function keeps every report byte, so the routes
that the benchmark self-test's ``WIRED`` list needs are pinned here too."""

import importlib
import sys
from collections import Counter
from pathlib import Path

import pytest

from elliptic_poisson import cli
from elliptic_poisson.brackets import BracketSpec, verify_closure
from elliptic_poisson.casimirs import casimir_even, casimirs, involution_family
from elliptic_poisson.poly import EPoly, IndexSet, ParamPoly

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


def count_calls(monkeypatch, module, path):
    """Replace every binding of ``elliptic_poisson.<module>.<path>`` that
    the tracer replaces (its ``Tracer._owners``: each module of the package
    and each of its classes, aliases such as ``__rmul__ = __mul__``
    included) by a counter; returns the calls per binding, keyed
    "owner.name"."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    package = {name: mod for name, mod in sys.modules.items()
               if name == "elliptic_poisson" or name.startswith("elliptic_poisson.")}
    owner = package[f"elliptic_poisson.{module}"]
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    original = vars(owner)[attr]
    calls = Counter()
    for ns_owner, ns in tracer.Tracer._owners(package):
        for key, value in list(ns.items()):
            if value is original:
                label = f"{ns_owner.__name__.rpartition('.')[2]}.{key}"
                monkeypatch.setattr(ns_owner, key, lambda *args, label=label, **kwargs:
                                    calls.update([label]) or original(*args, **kwargs))
    return calls


# (traced function, the caller that the WIRED list needs to reach it, calls)
ROUTES = [
    (("casimirs", "verify_central"),
     lambda: cli.main(["casimir-verify", "--n", "5"]), 1),
    (("brackets", "bracket_poly"),
     lambda: involution_family(4),
     len(casimirs(4).elements) * len(IndexSet.fn(4).members())),
    (("brackets", "generator_bracket"),
     lambda: verify_closure(5, BracketSpec.elliptic()), 4),
    (("casimirs", "sym_det"), lambda: casimir_even(4), 3),
]


@pytest.mark.parametrize("traced, run, want", ROUTES,
                         ids=["cli", "involution_family", "verify_closure", "casimir_even"])
def test_wired_callers_reach_the_traced_function(traced, run, want, monkeypatch, capsys):
    # the acceptance, exact-reach, formal-window and numeric-sweep traces
    # read these calls as nonzero; a caller that inlines the function
    # instead records none there
    calls = count_calls(monkeypatch, *traced)
    run()
    capsys.readouterr()
    assert sum(calls.values()) == want, calls


def test_casimir_even_multiplies_through_the_class_aliases(monkeypatch):
    # exact-reach's EPoly products come only through ``__rmul__`` (a
    # ParamPoly coefficient times a determinant); the tracer wraps it
    # because it is the very function object of ``__mul__``
    for cls in (EPoly, ParamPoly):
        assert vars(cls)["__rmul__"] is vars(cls)["__mul__"]
    epoly = count_calls(monkeypatch, "poly", "EPoly.__mul__")
    parampoly = count_calls(monkeypatch, "poly", "ParamPoly.__mul__")
    casimir_even(4)
    assert epoly + parampoly == {"EPoly.__rmul__": 1, "ParamPoly.__mul__": 4}

