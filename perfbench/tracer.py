"""Span recorder that wraps the library's public functions from outside.

``Tracer.install`` replaces every binding of each wrapped function in the
``elliptic_poisson`` modules (the defining module, modules that imported it
by name, the package re-exports, and class-attribute aliases such as
``__rmul__ = __mul__``), so no call path is missed.  Per function it keeps
calls, total time and self time (total minus the time of wrapped callees).
Spans of the non-hot functions are kept in memory and written out by the
caller at the end; hot functions (up to ~10^6 calls a run) are only
aggregated.  Counters derived from arguments and return values are kept by
small hooks, whose own cost is excluded from every self time.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import defaultdict
from time import perf_counter

from workloads import report_margin


def _epoly_mul(tr, args, result, exc):
    if exc is None:
        tr.maximum("poly.out_terms_max", result.num_terms())
        bits = 0
        for _, coeff in result.terms():
            for _, value in coeff.terms():
                bits = max(bits, value.numerator.bit_length(), value.denominator.bit_length())
        tr.maximum("poly.coeff_bits_max", bits)


def _bracket_poly(tr, args, result, exc):
    P, Q = args[0], args[1]
    tr.add("brackets.bracket_poly.term_pairs", P.num_terms() * Q.num_terms())
    if exc is None:
        tr.add("brackets.bracket_poly.out_terms", result.num_terms())


def _sym_det(tr, args, result, exc):
    tr.add("casimirs.sym_det.perms", math.factorial(args[0].size))


def _casimir_set(tr, args, result, exc):
    if exc is None:
        tr.add("casimirs.element_terms", sum(e.num_terms() for e in result.elements))


def _lattice_init(tr, args, result, exc):
    if isinstance(exc, ValueError):
        tr.add("weierstrass.lattice_init.failed", 1)


def _sym_eval(tr, args, result, exc):
    P, points = args[1], args[3]
    tr.add("weierstrass.sym_eval.ryser_subsets", P.num_terms() * 2 ** len(points))


def _margin(layer):
    metric = f"{layer}.margin_max"

    def hook(tr, args, result, exc):
        margin = report_margin(result) if exc is None else None
        if margin is not None:
            tr.maximum(metric, margin)
    return hook


def _nondegeneracy(tr, args, result, exc):
    tr.maximum("leaves.nondegeneracy_check.det_size", 2 * args[0].p)
    _margin("leaves")(tr, args, result, exc)


# (metric prefix, module, attribute path, hot, hook)
LAYERS = (
    ("poly.epoly_mul", "poly", "EPoly.__mul__", True, _epoly_mul),
    ("poly.parampoly_mul", "poly", "ParamPoly.__mul__", True, None),
    ("poly.parampoly_add", "poly", "ParamPoly.__add__", True, None),
    ("brackets.bracket_poly", "brackets", "bracket_poly", False, _bracket_poly),
    ("brackets.generator_bracket", "brackets", "generator_bracket", True, None),
    ("brackets.verify_jacobi_window", "brackets", "verify_jacobi_window", False, None),
    ("brackets.verify_closure", "brackets", "verify_closure", False, None),
    ("casimirs.sym_det", "casimirs", "sym_det", False, _sym_det),
    ("casimirs.casimir_even", "casimirs", "casimir_even", False, _casimir_set),
    ("casimirs.casimir_odd", "casimirs", "casimir_odd", False, _casimir_set),
    ("casimirs.pencil_family", "casimirs", "pencil_family", False, None),
    ("casimirs.verify_central", "casimirs", "verify_central", False, None),
    ("casimirs.involution_family", "casimirs", "involution_family", False, None),
    ("weierstrass.lattice_init", "weierstrass", "lattice_init", False, _lattice_init),
    ("weierstrass.weier_eval", "weierstrass", "weier_eval", True, None),
    ("weierstrass.func_bracket", "weierstrass", "func_bracket", True, None),
    ("weierstrass.sym_eval", "weierstrass", "sym_eval", True, _sym_eval),
    ("weierstrass.verify_functional", "weierstrass", "verify_functional", False,
     _margin("weierstrass")),
    ("weierstrass.weierstrass_selftest", "weierstrass", "weierstrass_selftest", False,
     _margin("weierstrass")),
    ("weierstrass.identity5_sweep", "weierstrass", "identity5_sweep", False,
     _margin("weierstrass")),
    ("leaves.xp_eval", "leaves", "xp_eval", True, None),
    ("leaves.leaf_bracket_xp", "leaves", "leaf_bracket_xp", True, None),
    ("leaves.prop3_check", "leaves", "prop3_check", False, _margin("leaves")),
    ("leaves.kernel_check", "leaves", "kernel_check", False, _margin("leaves")),
    ("leaves.diagonal_vanish_check", "leaves", "diagonal_vanish_check", False,
     _margin("leaves")),
    ("leaves.nondegeneracy_check", "leaves", "nondegeneracy_check", False, _nondegeneracy),
    ("cli", "cli", "main", False, None),
)

COUNTERS = (
    "poly.out_terms_max", "poly.coeff_bits_max",
    "brackets.bracket_poly.term_pairs", "brackets.bracket_poly.out_terms",
    "casimirs.sym_det.perms", "casimirs.element_terms",
    "weierstrass.lattice_init.failed", "weierstrass.sym_eval.ryser_subsets",
    "weierstrass.margin_max", "leaves.margin_max",
    "leaves.nondegeneracy_check.det_size",
)


class Tracer:
    """Nested timing spans and counters, all in memory."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name, *_ in LAYERS}  # calls, total, self
        self.counters = defaultdict(float)
        self.spans = []  # [name, start, end, parent span index]
        self._child = []  # time covered by wrapped callees, one entry per open call
        self._open_spans = []

    def add(self, name, value):
        self.counters[name] += value

    def maximum(self, name, value):
        self.counters[name] = max(self.counters[name], value)

    def wrap(self, name, fn, hot, hook):
        stat = self.stats[name]
        child = self._child
        spans = self.spans
        open_spans = self._open_spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not hot:
                open_spans.append(len(spans))
                spans.append([name, 0.0, 0.0, open_spans[-2] if len(open_spans) > 1 else None])
            child.append(0.0)
            exc = result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = perf_counter()
                inner = child.pop()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner
                if not hot:
                    span = spans[open_spans.pop()]
                    span[1], span[2] = start, end
                if hook is not None:
                    hook(self, args, result, exc)
                    elapsed = perf_counter() - start
                if child:
                    child[-1] += elapsed
        return traced

    def install(self) -> None:
        """Patch every binding of every function in LAYERS.  A function the
        library no longer has is reported on stderr and reads as 0 calls."""
        package = {name: mod for name, mod in sys.modules.items()
                   if name == "elliptic_poisson" or name.startswith("elliptic_poisson.")}
        for name, module, path, hot, hook in LAYERS:
            owner = package[f"elliptic_poisson.{module}"]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                print(f"tracer: elliptic_poisson.{module}.{path} not found", file=sys.stderr)
                continue
            wrapped = self.wrap(name, original, hot, hook)
            for ns_owner, ns in self._owners(package):
                for key, value in list(ns.items()):
                    if value is original:
                        setattr(ns_owner, key, wrapped)

    @staticmethod
    def _owners(package):
        seen = set()
        for mod in package.values():
            yield mod, vars(mod)
            for value in vars(mod).values():
                if (isinstance(value, type) and value.__module__.startswith("elliptic_poisson")
                        and id(value) not in seen):
                    seen.add(id(value))
                    yield value, vars(value)

    def metrics(self) -> dict[str, float]:
        out = {}
        for name, (calls, total, self_time) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_time
            out[f"{name}.total_s"] = total
        for name in COUNTERS:
            out[name] = self.counters[name]
        calls, total, _ = self.stats["weierstrass.weier_eval"]
        out["weierstrass.weier_eval.us_per_call"] = 1e6 * total / calls if calls else 0.0
        return out
