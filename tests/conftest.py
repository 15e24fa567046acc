"""Shared fixtures."""

import importlib
import sys
from fractions import Fraction

import pytest

import elliptic_poisson.weierstrass as weierstrass
from elliptic_poisson.brackets import BracketSpec, bracket_poly
from elliptic_poisson.casimirs import pencil_family
from elliptic_poisson.poly import SYMBOLS, EPoly, IndexSet, ParamPoly
from elliptic_poisson.report import Tally

# the module, not the function of the same name that the package re-exports
casimirs_module = importlib.import_module("elliptic_poisson.casimirs")


@pytest.fixture
def weier_eval_points(monkeypatch):
    """Every point passed to ``weier_eval`` while the test runs, in call
    order.  Numeric code evaluates points only through it.  Every binding of
    the function in the ``elliptic_poisson`` modules is patched (the
    defining module, the package re-export and any module that imported it
    by name), so no caller escapes the count."""
    seen = []
    real = weierstrass.weier_eval

    def counting(L, z, *args, **kwargs):
        seen.append(z)
        return real(L, z, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "elliptic_poisson" or name.startswith("elliptic_poisson."):
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, counting)
    return seen


def _weight_profile(p):
    """Common weight of the terms of an EPoly, or "inhomogeneous" / "zero".

    The weight of a term is the sum of its generator indices plus
    4 * (g2 exponent) + 6 * (g3 exponent); all other symbols have weight
    zero."""
    g2, g3 = SYMBOLS.index("g2"), SYMBOLS.index("g3")
    weights = {sum(mono) + 4 * exps[g2] + 6 * exps[g3]
               for mono, coeff in p.terms() for exps, _ in coeff.terms()}
    if not weights:
        return "zero"
    return weights.pop() if len(weights) == 1 else "inhomogeneous"


@pytest.fixture(scope="session")
def weight_profile():
    """The grading of the algebra, as a function of one EPoly."""
    return _weight_profile


def _pairwise_involution(n):
    """The involution report of ``pencil_family(n)`` from every pair of
    members, bracketed under the elliptic combination and under the pencil
    direction s2*{,}_2 + s3*{,}_3 at numeric n: the direct expansion that
    ``involution_family`` replaces by Lenard chains."""
    tally = Tally()
    family = pencil_family(n)
    direction = BracketSpec(ParamPoly.zero(), ParamPoly.symbol("s2"), ParamPoly.symbol("s3"))
    specs = (("elliptic", BracketSpec.elliptic()), ("direction", direction))
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            for label, spec in specs:
                tally.exact(bracket_poly(family[i], family[j], spec, n_value=Fraction(n)),
                            "pair ({},{}) under {}", i, j, label)
    params = {"n": n, "family_size": len(family),
              "pairs": len(family) * (len(family) - 1) // 2}
    return tally.report(f"involution-n{n}", params)


@pytest.fixture(scope="session")
def pairwise_involution():
    """Pairwise involution oracle, as a function of n."""
    return _pairwise_involution


def _chain_involution(n):
    """The involution report of ``casimirs(n)`` by Lenard chains computed the
    long way: each central element with g2 -> g2 + t*s2, g3 -> g3 + t*s3
    composed, bracketed with each generator of F_n under the shifted bracket
    (1, g2 + t*s2, g3 + t*s3) = elliptic + t*direction at numeric n.
    ``involution_family`` instead shifts the centrality brackets.  It reads
    ``casimirs`` from its module at call time, so a patched one is used."""
    t, s2, s3 = ParamPoly.symbol("t"), ParamPoly.symbol("s2"), ParamPoly.symbol("s3")
    shift = {"g2": ParamPoly.symbol("g2") + t * s2, "g3": ParamPoly.symbol("g3") + t * s3}
    spec = BracketSpec(ParamPoly.one(), shift["g2"], shift["g3"])
    shifted = [elem.compose_params(shift) for elem in casimirs_module.casimirs(n).elements]
    tally = Tally()
    for ci, elem in enumerate(shifted):
        for gamma in IndexSet.fn(n).members():
            tally.exact(bracket_poly(elem, EPoly.gen(gamma), spec, n_value=Fraction(n)),
                        "element {}, generator e[{}]", ci, gamma)
    size = sum(len(elem.collect_symbol("t")) for elem in shifted)
    params = {"n": n, "family_size": size, "pairs": size * (size - 1) // 2}
    return tally.report(f"involution-n{n}", params)


@pytest.fixture(scope="session")
def chain_involution():
    """Lenard-chain involution oracle on the shifted elements, as a function
    of n."""
    return _chain_involution
