"""Shared fixtures."""

import pytest

import elliptic_poisson.weierstrass as weierstrass
from elliptic_poisson.poly import SYMBOLS


@pytest.fixture
def weier_eval_points(monkeypatch):
    """Every point passed to ``weierstrass.weier_eval`` while the test runs,
    in call order.  Numeric code evaluates points only through it."""
    seen = []
    real = weierstrass.weier_eval

    def counting(L, z, *args, **kwargs):
        seen.append(z)
        return real(L, z, *args, **kwargs)

    monkeypatch.setattr(weierstrass, "weier_eval", counting)
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
