"""The shared check recorder: pass rule, failure records, exact-zero."""

import itertools
import json
import math

from elliptic_poisson.poly import EPoly
from elliptic_poisson.report import EXACT_ZERO, Tally, render_table


def test_exact_tally_passes_with_exact_zero():
    tally = Tally()
    tally.exact(EPoly.zero(), "element {}, generator e[{}]", 0, 2)
    rep = tally.report("centrality", {"n": 4})
    assert rep.passed and rep.max_residual == EXACT_ZERO and rep.failures == []
    assert rep.duration is not None and rep.duration >= 0


def test_exact_tally_records_residual_text():
    tally = Tally()
    tally.exact(EPoly.gen(3), [1, 2, 3])
    tally.exact(EPoly.gen(4), "pair ({},{}) under {}", 0, 1, "elliptic")
    rep = tally.report("jacobi", {})
    assert not rep.passed and rep.max_residual is None
    assert rep.failures == [
        {"witness": [1, 2, 3], "residual-text": "(1)*e[3]"},
        {"witness": "pair (0,1) under elliptic", "residual-text": "(1)*e[4]"},
    ]


def test_tolerance_rule_and_worst_residual():
    tally = Tally(1e-6)
    tally.residual(2e-7, "sample {}", 0)
    tally.residual(1e-6, "sample {}", 1)  # equal to the tolerance fails
    tally.residual(3e-9, "x={!r}", 0.5j, text="r1=1 r2=2")
    rep = tally.report("sweep", {"tol": 1e-6})
    assert rep.status == "fail" and rep.max_residual == 1e-6
    assert rep.failures == [{"witness": "sample 1", "residual-text": "1.000e-06"}]


def test_caller_text_and_extra_keys():
    tally = Tally(1e-8)
    tally.residual(0.5, "x={!r}, y={!r}", 1j, 2j, text="r1=5.000e-01 r2=0.000e+00")
    tally.fail([0, 2], "(1)*e[5]", escaped_indices=[5])
    rep = tally.report("mixed", {"tol": 1e-8})
    assert rep.max_residual == 0.5
    assert json.loads(rep.to_json())["failures"] == [
        {"witness": "x=1j, y=2j", "residual-text": "r1=5.000e-01 r2=0.000e+00"},
        {"witness": [0, 2], "residual-text": "(1)*e[5]", "escaped_indices": [5]},
    ]


def test_residual_text_template_filled_on_failure():
    tally = Tally(1e-8)
    tally.residual(1e-9, "x={!r}", 1j, text="r1={:.3e}", text_args=(float("nan"),))
    tally.residual(0.5, "x={!r}", 2j, text="r1={:.3e} r2={:.3e}", text_args=(0.25, 0.5))
    rep = tally.report("templates", {"tol": 1e-8})
    assert rep.failures == [{"witness": "x=2j", "residual-text": "r1=2.500e-01 r2=5.000e-01"}]


def test_passing_tolerance_tally_reports_worst_not_exact_zero():
    tally = Tally(1e-9)
    rep = tally.report("empty", {"tol": 1e-9})
    assert rep.passed and rep.max_residual == 0.0


def test_nan_residual_fails():
    tally = Tally(1e-6)
    tally.residual(1e-9, "sample {}", 0)
    tally.residual(float("nan"), "sample {}", 1)
    rep = tally.report("sweep", {"tol": 1e-6})
    assert rep.status == "fail" and math.isnan(rep.max_residual)
    assert rep.failures == [{"witness": "sample 1", "residual-text": "nan"}]


def test_nan_worst_residual_in_every_order():
    # max() passes over NaN, so a NaN seen first, or between two numbers,
    # left a max_residual below the tolerance of a failing check
    for order in itertools.permutations([1e-9, float("nan"), 2e-9]):
        tally = Tally(1e-6)
        for k, rel in enumerate(order):
            tally.residual(rel, "sample {}", k)
        rep = tally.report("sweep", {"tol": 1e-6})
        assert not rep.passed and math.isnan(rep.max_residual), order


def test_non_finite_worst_residual_is_a_json_string():
    # json.dumps writes NaN and Infinity, which are not JSON; the report
    # writes them as strings, as exact checks write exact-zero, and keeps
    # the float on the object and in the table
    for rel, text in ((float("nan"), "nan"), (float("inf"), "inf")):
        tally = Tally(1e-6)
        tally.residual(rel, "sample {}", 0)
        rep = tally.report("sweep", {"tol": 1e-6})
        assert rep.to_dict()["max_residual"] == text
        assert json.loads(rep.to_json()) == rep.to_dict()
        assert isinstance(rep.max_residual, float) and str(rep.max_residual) == text
        assert f"  {text}  " in render_table([rep])
