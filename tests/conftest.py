"""Shared fixtures."""

import pytest

import elliptic_poisson.weierstrass as weierstrass


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
